import hashlib
import os
import random
import re
import subprocess
import sys
from dataclasses import replace

import pytest

import smg
from smg.diagram import Diagram, SMGSemanticError, enumerate_orientations, parse_smg, serialize
from smg.fixtures import fixture, fixture_names
from smg.moves import FORWARD, REVERSE, apply_move, find_sites, verify_sequence
from smg.catalog import catalog_map, move_catalog
from smg.resolution import (
    NEGATIVE,
    POSITIVE,
    Budget,
    classical_components,
    is_admissible,
    is_trivial_unlink,
    linking_matrix,
    reidemeister_simplify,
    resolve,
)
from smg.transforms import export_exterior, profile, semi_transform


def test_resolve_circle_both_signs():
    d = fixture("circle")
    for sign in (POSITIVE, NEGATIVE):
        r = resolve(d, sign)
        assert r.component_count() == 1
        assert r.diagram.counts == (0, 0, 0)


def test_resolve_one_marker_kinked_circle():
    r_pos = resolve(fixture("saddle_sphere"), POSITIVE)
    r_neg = resolve(fixture("saddle_sphere"), NEGATIVE)
    assert r_pos.component_count() == 1
    assert r_neg.component_count() == 2


def test_resolve_fr_both_trivial():
    d = fixture("fr")
    for sign in (POSITIVE, NEGATIVE):
        r = resolve(d, sign)
        assert r.diagram.is_classical()
        assert is_trivial_unlink(r.diagram).value == "yes"


def test_resolve_keeps_crossings_verbatim():
    d = fixture("trefoil")
    r = resolve(d, POSITIVE)
    assert r.diagram.canonical_code() == d.canonical_code()


def test_substitution_checks_its_result():
    """A tangle whose strands cross without a node makes a map that is not
    spherical; the substitution says so with a typed error."""
    from smg.diagram import SMGError
    from smg.moves import Pattern
    from smg.resolution import _substitute

    d = parse_smg("diagram h\nnode m M 0 bo ao bl al\nnode x X al bl ao bo\nend\n")
    crossed = Pattern((), ("p", "q", "p", "q"))
    with pytest.raises(SMGError, match="non-spherical embedding"):
        _substitute(d, {"m": (crossed, 0)}, "h")


def test_simplify_kink_single_step():
    simp, trace = reidemeister_simplify(fixture("kink"))
    assert simp.counts[0] == 0
    assert len(trace) == 1


def test_simplify_crossingless_identity():
    d = fixture("two_loops")
    simp, trace = reidemeister_simplify(d)
    assert simp.canonical_code() == d.canonical_code()
    assert len(trace) == 0


R2_UNKNOT = """\
diagram r2u
node u X mB a1 b1 mA
node v X mB mA b2 a2
end
"""


def test_simplify_r2_pair():
    d = parse_smg(R2_UNKNOT.replace("a1", "o1").replace("b1", "o1")
                  .replace("a2", "o2").replace("b2", "o2"))
    assert d.validate().ok
    simp, trace = reidemeister_simplify(d)
    assert simp.counts[0] == 0
    assert len(trace) >= 1


def test_simplify_trace_replays():
    d = fixture("kink")
    simp, trace = reidemeister_simplify(d)
    cat = catalog_map("unoriented")
    final = verify_sequence(d, trace, cat)
    assert final.canonical_code() == simp.canonical_code()


def test_trivial_three_loops():
    t = is_trivial_unlink(fixture("three_loops"))
    assert t.value == "yes" and t.components == 3


def test_trivial_fr_exterior_mixes_outer_and_face_anchors():
    """Simplifying the Kirby exterior of fr passes through diagrams with one
    component in the outer face and another placed in a face."""
    from smg.transforms import export_exterior

    d = export_exterior(fixture("fr")).diagram
    t = is_trivial_unlink(d)
    assert t.value == "yes" and t.components == 4
    final = verify_sequence(d, t.trace, catalog_map("unoriented"))
    assert not final.nodes and len(final.loops) == 4


def test_trivial_hopf_no_by_linking():
    t = is_trivial_unlink(fixture("hopf"))
    assert t.value == "no"
    assert "linking" in t.obstruction


def test_trivial_trefoil_no_by_coloring():
    t = is_trivial_unlink(fixture("trefoil"))
    assert t.value == "no"
    assert "fox3" in t.obstruction


def test_trivial_kinked_unknot_yes():
    t = is_trivial_unlink(fixture("kink"), Budget(extra_crossings=1))
    assert t.value == "yes"
    assert t.trace is not None and len(t.trace) == 1


def test_trivial_never_contradicts_across_budgets():
    for name in ("kink", "hopf", "trefoil"):
        answers = set()
        for cap in (1, 100, 10000):
            t = is_trivial_unlink(fixture(name), Budget(max_states=cap))
            if t.value != "unknown":
                answers.add(t.value)
        assert len(answers) <= 1, name


def test_admissible_fixture_verdicts():
    for name in ("circle", "sing_sphere", "fr", "saddle_sphere",
                 "d2m5", "d2m6", "d1m5", "d1m6"):
        assert is_admissible(fixture(name))["verdict"] == "yes", name
    assert is_admissible(fixture("hopf"))["verdict"] == "no"


def test_linking_matrix_examples():
    unlink = fixture("two_loops")
    od = enumerate_orientations(unlink)[0]
    assert linking_matrix(od) == [[0, 0], [0, 0]]

    hopf = fixture("hopf")
    od = enumerate_orientations(hopf)[0]
    lk = linking_matrix(od)
    assert abs(lk[0][1]) == 1 and lk[0][0] == lk[1][1] == 0
    assert lk[0][1] == lk[1][0]


def test_linking_matrix_d2m5_transform():
    from smg.transforms import semi_transform

    t = semi_transform(fixture("d2m5"), "M5")
    od = enumerate_orientations(t)[0]
    lk = linking_matrix(od)
    entries = [abs(lk[i][j]) for i in range(len(lk)) for j in range(i + 1, len(lk))]
    assert 1 in entries


def test_certificate_serialization():
    t = is_trivial_unlink(fixture("kink"))
    text = t.serialize()
    assert "answer yes" in text and "trace" in text


def test_admissibility_certificates_replay():
    d = fixture("fr")
    res = is_admissible(d)
    cat = catalog_map("unoriented")
    for sign in (POSITIVE, NEGATIVE):
        cert = res[sign]
        assert cert.value == "yes"
        start = resolve(d, sign).diagram
        final = verify_sequence(start, cert.trace, cat)
        assert final.counts[0] == 0


#: five crossings: one kink, and once it is gone a dead end of four
#: crossings with reverse R3 sites, none of which removes a crossing
KINKED_DEAD_END = """\
diagram dead_end
node q0 X t16 t5 t6 t12
node q2 X t14 t14 t11 t9
node q3 X t13 t9 t10 t12
node q4 X t11 t15 t16 t10
node t1 X t13 t6 t5 t15
end
"""


def test_greedy_applies_once_per_trace_step(monkeypatch):
    """With one state allowed the simplification is the greedy pass alone,
    and it applies only the site it keeps: the first reverse site of the
    first move that removes crossings."""
    import smg.resolution as resolution

    applied = []
    real = resolution.apply_move
    monkeypatch.setattr(resolution, "apply_move",
                        lambda *args, **kw: applied.append(args[1].id) or real(*args, **kw))
    dead_end = parse_smg(KINKED_DEAD_END)
    simp, trace = reidemeister_simplify(dead_end, Budget(max_states=1))
    assert (simp.counts[0], applied) == (4, ["O1"])
    assert find_sites(simp, catalog_map("unoriented")["O3"], REVERSE)
    for name in fixture_names():
        for sign in (POSITIVE, NEGATIVE):
            applied.clear()
            _, trace = reidemeister_simplify(resolve(fixture(name), sign).diagram,
                                             Budget(max_states=1))
            assert applied == [s.move_id for s in trace.steps], (name, sign)


def test_simplifier_heap_answer_is_pinned(monkeypatch):
    """Past its greedy pass the simplifier searches a heap of states; its
    answer and trace on the dead end are pinned byte for byte.  A heap
    state is a code with a parent link, so the only steps that get a digest
    as they are made are the greedy ones; the trace reads the rest from the
    links."""
    import smg.resolution as resolution

    digests, greedy = [0], [0]
    digest, reduce = resolution.code_digest, resolution._greedy_reduce

    def counted_digest(d):
        digests[0] += 1
        return digest(d)

    def counted_reduce(c):
        out = reduce(c)
        greedy[0] += len(out[1])
        return out

    monkeypatch.setattr(resolution, "code_digest", counted_digest)
    monkeypatch.setattr(resolution, "_greedy_reduce", counted_reduce)
    simp, trace = reidemeister_simplify(parse_smg(KINKED_DEAD_END), Budget(max_states=200))
    assert (simp.counts[0], len(trace)) == (3, 3)
    assert hashlib.sha256(trace.serialize().encode()).hexdigest()[:12] == "bab6ca695883"
    assert digests[0] == greedy[0] > 0


@pytest.mark.parametrize("cap", [2, 3, 4, 5])
def test_simplifier_heap_stops_at_its_state_budget(monkeypatch, cap):
    """The heap search makes exactly ``max_states`` states, the start
    among them: one greedy pass for the start and one per new state."""
    import smg.resolution as resolution

    calls, reduce = [0], resolution._greedy_reduce

    def counted_reduce(c):
        calls[0] += 1
        return reduce(c)

    monkeypatch.setattr(resolution, "_greedy_reduce", counted_reduce)
    simp, trace = reidemeister_simplify(parse_smg(KINKED_DEAD_END), Budget(max_states=cap))
    assert calls[0] == cap
    assert verify_sequence(parse_smg(KINKED_DEAD_END), trace,
                           catalog_map("unoriented")).canonical_code() == simp.canonical_code()


def test_simplifier_heap_holds_no_rewritten_diagram(monkeypatch):
    """The heap holds copies without caches, so the rewrites the
    simplifier makes are dropped once it has looked at them.  Alive at
    most: the greedy start, the best tail, and a rewrite with the greedy
    tails of it and of the rewrite before."""
    import smg.resolution as resolution
    from test_moves import watch_states

    dead_end = parse_smg(KINKED_DEAD_END)
    most, fresh, _ = watch_states(monkeypatch, resolution, (dead_end,))
    simp, _ = reidemeister_simplify(dead_end, Budget(max_states=200))
    monkeypatch.undo()
    assert simp.counts[0] == 3
    assert most[0] <= 5
    assert fresh and all(fresh)


def test_admissibility_certificates_are_pinned():
    """Both certificates of every fixture and of its one-move rewrites, byte
    for byte: verdicts, obstructions and simplification traces."""
    from test_quandles import fixtures_and_rewrites

    h = hashlib.sha256()
    for d in fixtures_and_rewrites():
        res = is_admissible(d)
        for sign in (POSITIVE, NEGATIVE):
            h.update(res[sign].serialize().encode() + b"\n")
    assert h.hexdigest()[:16] == "aecdf0def7a6aff4"


def test_shared_tails_answer_as_a_fresh_family(monkeypatch):
    """A rewrite shares its host's memo of greedy tails.  On every rewrite
    of every fixture by every unoriented move, in both directions at every
    site (criterion 4's set), admissibility answers byte for byte as on a
    copy with a memo of its own, and gives the verdict of the rewrite's
    parsed text (which lists nodes by id, so the greedy pass may take other
    sites).  A greedy pass runs once per resolution, and once for both
    resolutions of a classical diagram, which are equal.  Per host whose
    tails stay below their cap and whose passes all clear, no move is
    applied twice at one shape; a host whose passes all get stuck has no
    tails."""
    import smg.resolution as resolution

    calls, shapes = [], []
    real, real_apply = resolution._greedy_reduce, resolution.apply_move
    monkeypatch.setattr(resolution, "_greedy_reduce",
                        lambda c, tails=None: calls.append(c) or real(c, tails))
    monkeypatch.setattr(resolution, "apply_move", lambda d, *args, **kw: shapes.append(
        resolution._shape(d)) or real_apply(d, *args, **kw))
    once, barren = [], []   # the hosts that apply at distinct shapes, that clear nothing
    for name in fixture_names():
        host, applied, values = fixture(name), [], set()
        for m in move_catalog("unoriented"):
            for direction in (FORWARD, REVERSE):
                for site in find_sites(host, m, direction):
                    rewrite = apply_move(host, m, site)
                    calls.clear()
                    shapes.clear()
                    res = is_admissible(rewrite)
                    pos, neg = (resolve(rewrite, sign).diagram for sign in (POSITIVE, NEGATIVE))
                    assert len(calls) == 1 + (neg != pos), (name, m.id)
                    applied += shapes
                    values.update(res[sign].value for sign in (POSITIVE, NEGATIVE))
                    fresh = is_admissible(replace(rewrite))
                    for sign in (POSITIVE, NEGATIVE):
                        assert res[sign].serialize() == fresh[sign].serialize(), (name, m.id)
                    parsed = is_admissible(parse_smg(serialize(rewrite)))
                    assert res["verdict"] == fresh["verdict"] == parsed["verdict"], (name, m.id)
        if values == {"no"}:
            assert host._tails == {}, name
            barren.append(name)
        elif values == {"yes"} and len(host._tails) < resolution._FAMILY_CAP:
            assert len(applied) == len(set(applied)) == len(host._tails), name
            once.append(name)
    assert len(once) >= 8 and barren == ["hopf", "trefoil"]
    calls.clear()
    res = is_admissible(fixture("hopf"))
    assert res["verdict"] == "no" and len(calls) == 1
    # each answer handed out is a copy of its own, sharing only the frozen trace
    res[NEGATIVE].value = "yes"
    assert res[POSITIVE].value == "no"
    kink = fixture("kink")
    first = is_trivial_unlink(kink)
    first.value = "no"
    calls.clear()
    shapes.clear()
    again = is_trivial_unlink(kink)
    assert (again.value, again.trace, len(calls), shapes) == ("yes", first.trace, 1, [])


def test_a_classical_diagram_is_proven_once_at_size(monkeypatch):
    """Both resolutions of a classical diagram are the diagram itself, so
    admissibility proves it once: on a chain of 150 kinks the greedy pass
    applies 150 moves, one per kink, and both certificates are equal.  The
    tails keep a pass's last states only, so proving the negative
    resolution again would replay the rest of its kinks."""
    from test_diagram import kink_chain_text

    import smg.resolution as resolution

    applied, real = [0], resolution.apply_move

    def counted(*args, **kw):
        applied[0] += 1
        return real(*args, **kw)

    monkeypatch.setattr(resolution, "apply_move", counted)
    res = is_admissible(parse_smg(kink_chain_text("X" * 150)))
    assert (res["verdict"], applied[0]) == ("yes", 150)
    assert res[POSITIVE].serialize() == res[NEGATIVE].serialize()
    assert len(res[POSITIVE].trace) == 150


NON_CLASSICAL_CHECK = """
from smg.diagram import SMGSemanticError
from smg.fixtures import fixture
from smg.resolution import is_trivial_unlink
from smg.transforms import profile
for f in (profile, is_trivial_unlink):
    try:
        f(fixture("saddle_sphere"))
    except SMGSemanticError as e:
        print(f.__name__, "raises", type(e).__name__)
"""


def test_non_classical_input_is_a_semantic_error():
    d = fixture("saddle_sphere")
    for f in (classical_components, reidemeister_simplify, is_trivial_unlink, profile):
        with pytest.raises(SMGSemanticError, match=f"{f.__name__} needs a classical diagram"):
            f(d)
    # the check is not an assert, so it survives python -O
    src = os.path.dirname(os.path.dirname(os.path.abspath(smg.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", NON_CLASSICAL_CHECK], env=env,
                         capture_output=True, text=True, timeout=60, check=True).stdout
    assert out.split("\n")[:2] == ["profile raises SMGSemanticError",
                                   "is_trivial_unlink raises SMGSemanticError"]


@pytest.mark.parametrize("bad", [enumerate_orientations(fixture("kink"))[0], "kink", "budget"],
                         ids=["oriented", "text", "budget"])
def test_non_diagram_input_is_a_semantic_error(bad):
    """An OrientedDiagram, or anything else that is not a Diagram, is a
    typed error, not an AttributeError.  So is a budget that is neither
    None nor a Budget, also where no heap search would read it."""
    calls = {"is_admissible": is_admissible, "is_trivial_unlink": is_trivial_unlink,
             "reidemeister_simplify": reidemeister_simplify}
    if bad == "budget":
        args, wants = (fixture("kink"), "x"), "a Budget, not str"
    else:
        calls["resolve"] = lambda x: resolve(x, POSITIVE)
        calls["semi_transform"] = lambda x: semi_transform(x, "M5")
        calls["export_exterior"] = export_exterior
        args, wants = (bad,), f"an unoriented Diagram, not {type(bad).__name__}"
    for name, f in calls.items():
        with pytest.raises(SMGSemanticError, match=f"{name} needs {wants}"):
            f(*args)


def test_a_diagram_is_resolved_once_per_sign(monkeypatch):
    """``resolve`` substitutes once per diagram and sign, for every caller:
    admissibility, component counts and the abstract orientation.  Each
    call hands out its own rotations, and a copy made with
    ``dataclasses.replace`` starts without resolutions."""

    import smg.resolution as resolution
    from smg.groups import wirtinger_presentation

    substituted = []
    real = resolution._substitute
    monkeypatch.setattr(resolution, "_substitute",
                        lambda d, *args, **kw: substituted.append(d.name) or real(d, *args, **kw))
    d = replace(fixture("d1m6"))
    first = resolve(d, POSITIVE)
    rot = dict(first.snode_rot)
    first.snode_rot.clear()
    is_admissible(d)
    wirtinger_presentation(d)
    again = resolve(d, POSITIVE)
    assert again.diagram is first.diagram and again.snode_rot == rot != {}
    assert resolve(d, NEGATIVE).component_count() == 2
    assert substituted == ["d1m6", "d1m6"]
    copy = replace(d)
    assert "_resolutions" not in copy.__dict__
    assert resolve(copy, NEGATIVE).diagram.canonical_code() == \
        resolve(d, NEGATIVE).diagram.canonical_code()
    assert len(substituted) == 3


def test_classical_components_are_found_once_per_diagram(monkeypatch):
    """The admissibility check, the linking numbers and the resolution's
    components share one computation per diagram; every call still returns
    a new list."""

    import smg.resolution as resolution

    built = []
    real = resolution._build_components
    monkeypatch.setattr(resolution, "_build_components", lambda c: built.append(c) or real(c))
    d = replace(fixture("hopf"))
    r = resolve(d, NEGATIVE)
    c = r.diagram
    first = classical_components(c)
    first.clear()
    assert is_trivial_unlink(c).obstruction == "linking(0,1)=1"
    assert classical_components(c) == r.components == resolve(d, NEGATIVE).components != []
    assert classical_components(c) is not classical_components(c)
    assert len(built) == 1 and built[0] is c
    assert "_components" not in replace(c).__dict__


def test_greedy_certificate_comes_before_the_obstructions(monkeypatch):
    """A greedy pass that clears every crossing answers YES before linking
    numbers or Fox colorings are counted; a diagram it leaves crossed gets
    both, and the heap search starts where the greedy pass stopped."""
    import smg.resolution as resolution

    calls = []
    for name in ("linking_matrix", "_fox3_count", "apply_move"):
        real = getattr(resolution, name)
        monkeypatch.setattr(resolution, name, lambda *args, _name=name, _real=real, **kw:
                            calls.append(_name) or _real(*args, **kw))
    assert is_trivial_unlink(fixture("kink")).value == "yes"
    assert calls == ["apply_move"]
    calls.clear()
    assert is_trivial_unlink(fixture("trefoil")).value == "no"
    assert calls == ["linking_matrix", "_fox3_count"]
    # a figure-eight knot, which neither obstruction sees, with one kink
    # that the greedy pass removes once, before the obstructions
    fig8 = parse_smg("diagram fig8\nnode a X e4 e2 e5 e1\nnode b X e8 e6 e1 e5\n"
                     "node c X e6 e3 e7 e4\nnode d X e2 e7 e3 e8\nend\n")
    o1 = catalog_map("unoriented")["O1"]
    kinked = resolution.apply_move(fig8, o1, find_sites(fig8, o1, "forward")[0])
    calls.clear()
    t = is_trivial_unlink(kinked, Budget(max_states=1))
    assert (t.value, calls) == ("unknown", ["apply_move", "linking_matrix", "_fox3_count"])


def renamed(c: Diagram, rng: random.Random) -> Diagram:
    """``c`` with its edges and loops renamed by a random bijection onto
    names that share the prefixes the splice gives to the edges and loops
    it makes; node ids and their order stay."""
    n = len(c.edges) + len(c.loops)
    pool = [x for x in (f"{p}{i}" for p in "ctrqe" for i in range(n + 2)) if x not in c.node_map]
    names = rng.sample(pool, n)
    return c.relabeled({}, dict(zip(c.edges, names)), dict(zip(c.loops, names[len(c.edges):])))


def test_a_shape_forgets_edge_and_loop_names_but_not_nodes():
    """Shapes, the keys of the greedy tails, are equal for diagrams that
    differ only in edge and loop names, and differ when node ids or their
    order do."""
    from smg.resolution import _shape

    rng = random.Random(27)
    host = parse_smg("diagram t\nnode k X b a a b\nnode j X d c c d\nloop c0\nloop c1\n"
                     "place j in k.1\nplace c1 in j.3\nend\n")
    for d in (fixture("trefoil"), host):
        other = renamed(d, rng)
        assert other.edges != d.edges and _shape(other) == _shape(d)
        assert _shape(Diagram(d.name, d.nodes[::-1], d.loops, d.anchors)) != _shape(d)
        assert _shape(d.relabeled({d.nodes[0].id: "z"}, {})) != _shape(d)
    # the same two loops, placed the other way round
    swapped = Diagram(host.name, host.nodes, host.loops,
                      tuple(("c0" if pid == "c1" else pid, a) for pid, a in host.anchors))
    assert _shape(swapped) != _shape(host)


def test_the_greedy_pass_ignores_edge_and_loop_names():
    """The premise of the greedy tails: on every classical diagram at hand,
    a copy with its edges and loops renamed at random (node ids and order
    kept) has the same greedy trace, byte for byte, and so the same
    certificate when that trace clears every crossing.  The diagrams: both
    resolutions of every fixture, of every criterion-4 rewrite of it and of
    every placed host, and the classical hosts with placed loops and pieces
    with their classical rewrites.  Past the greedy pass names do count: a
    linking obstruction numbers components by their least edge names, and
    the heap search tries strands in the order of edge names."""
    from test_diagram import anchored_hosts
    from test_transforms import PLACED_HOSTS

    import smg.resolution as resolution

    def rewrites(d):
        return [apply_move(d, m, s) for m in move_catalog("unoriented")
                for direction in (FORWARD, REVERSE) for s in find_sites(d, m, direction)]

    hosts = [fixture(name) for name in fixture_names()]
    hosts += [r for d in list(hosts) for r in rewrites(d)]
    hosts += [parse_smg(f"diagram h\n{body}end\n") for body in PLACED_HOSTS]
    placed = anchored_hosts()
    placed += [r for d in list(placed) for r in rewrites(d) if r.is_classical()]
    seen = {}       # one diagram per shape: the renamed copies stand for the rest
    for c in [resolve(d, sign).diagram for d in hosts for sign in (POSITIVE, NEGATIVE)] + placed:
        seen.setdefault(resolution._shape(c), c)
    rng, cleared = random.Random(27), 0
    for c in seen.values():
        # fresh diagrams, so that neither shares a memo with anything
        d, other = Diagram(c.name, c.nodes, c.loops, c.anchors), renamed(c, rng)
        end, steps = resolution._greedy_reduce(d)
        assert steps == resolution._greedy_reduce(other)[1], serialize(c)
        if end.counts[0] == 0:
            cleared += 1
            assert is_trivial_unlink(d).serialize() == is_trivial_unlink(other).serialize()
    assert cleared > 500 and sum(bool(c.anchors) for c in seen.values()) > 20


def test_fr_admissibility_work_is_pinned(monkeypatch):
    """Criterion 4's admissibility checks on the rewrites of ``fr``, by every
    unoriented move in both directions at every site, apply 1,224 moves,
    all in greedy passes, where proving every greedy state anew applied
    2,858; the certificates are the same, byte for byte."""
    import smg.resolution as resolution

    applied, heap = [0], []
    real, real_heap = resolution.apply_move, resolution._heap_search

    def counted(*args, **kw):
        applied[0] += 1
        return real(*args, **kw)

    monkeypatch.setattr(resolution, "apply_move", counted)
    monkeypatch.setattr(resolution, "_heap_search",
                        lambda *args: heap.append(args) or real_heap(*args))
    host, h = fixture("fr"), hashlib.sha256()
    for m in move_catalog("unoriented"):
        for direction in (FORWARD, REVERSE):
            for site in find_sites(host, m, direction):
                res = is_admissible(apply_move(host, m, site))
                for sign in (POSITIVE, NEGATIVE):
                    h.update(res[sign].serialize().encode() + b"\n")
    assert (applied[0], heap) == (1224, [])
    assert h.hexdigest()[:16] == "6f567c3588d7041e"
