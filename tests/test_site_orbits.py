"""Sites in one orbit of a diagram's automorphisms are searched once.

On a diagram of one graph piece with no loops, the automorphisms that
canonicalisation finds for the piece move the whole diagram, and a site's
image under one has an isomorphic rewrite.  Both searches apply one site
per orbit (``moves._unrepeated``); they store the same codes in the same
order, so their answers stay byte for byte what the unpruned search
(``reference_search_equivalence``, kept here as the oracle) gives, except
where isomorphic rewrites with places get codes that differ (ROADMAP item
1).

The equivalence search also makes and codes a rewrite at once only when
its node-kind counts (``moves._rewrite_counts``) meet the other side's,
and holds the others back until its expansion ends; the oracle, skipping
sites by orbit too, codes every rewrite at once, and the two must answer
alike under every budget.
"""

import hashlib
import os
import random
import subprocess
import sys
from dataclasses import replace

import pytest

import smg.moves as moves
from smg.catalog import catalog_map
from smg.diagram import Diagram, parse_smg
from smg.fixtures import fixture, fixture_names
from smg.moves import (
    FORWARD,
    REVERSE,
    MoveSequence,
    SearchBudget,
    _automorphisms,
    _path,
    _site_image,
    _unrepeated,
    apply_move,
    find_sites,
    search_equivalence,
)

from test_moves import WALK_MOVES, watch_states

CAT = catalog_map("unoriented")


def walk(d, steps: int, rng: random.Random):
    """``d`` and the states of a seeded walk of ``steps`` WALK_MOVES."""
    states = [d]
    for _ in range(steps):
        options = [(CAT[m], s) for m in WALK_MOVES for direction in (FORWARD, REVERSE)
                   for s in find_sites(states[-1], CAT[m], direction)]
        states.append(apply_move(states[-1], *rng.choice(options)))
    return states


def key(site) -> tuple:
    return site.variant, site.node_images, site.leg_targets


def symmetric_hosts() -> list:
    """The fixtures, their one-move rewrites and the states of two seeded
    two-move walks from each, that are one graph piece with no loops and
    have automorphisms."""
    hosts = []
    for name in fixture_names():
        d = fixture(name)
        hosts.append(d)
        hosts += [apply_move(d, m, s) for m in CAT.values() for direction in (FORWARD, REVERSE)
                  for s in find_sites(d, m, direction)]
        for seed in range(2):
            hosts += walk(d, 2, random.Random(f"{name}.{seed}"))[1:]
    distinct = {}
    for d in hosts:
        d.faces()
        if _automorphisms(d):
            distinct.setdefault(d.canonical_code(), d)
    return list(distinct.values())


def test_automorphisms_move_kept_sites_to_sites_with_equal_rewrites():
    """Every generator image of every kept site, of every unoriented move in
    both directions, is a site, and its rewrite has the site's code."""
    hosts, images = symmetric_hosts(), 0
    assert len(hosts) >= 20
    for d in hosts:
        gens = _automorphisms(d)
        for m in CAT.values():
            for direction in (FORWARD, REVERSE):
                sites = {key(s): s for s in find_sites(d, m, direction)}
                for k, site in sites.items():
                    if site.variant not in m._kept:
                        continue
                    code = apply_move(d, m, site).canonical_code()
                    for g in gens:
                        image = _site_image(d, g, k)
                        assert image in sites, (d.name, m.id, direction, k, image)
                        assert apply_move(d, m, sites[image]).canonical_code() == code
                        images += image != k
    assert images > 1000


#: hosts with a loop, a place or two pieces, each with a symmetric piece
UNMOVED = [
    "node k X b a a b\nloop c0\n",
    "node k X b a a b\nloop c0\nplace c0 in k.1\n",
    "node a X e0 e1 e2 e3\nnode b X e4 e5 e6 e7\n"
    "node c X e3 e2 e1 e0\nnode d X e7 e6 e5 e4\n",
]


def test_nothing_is_skipped_without_a_whole_diagram_symmetry():
    """A loop, a place or a second piece keeps a piece's automorphisms from
    moving the diagram, so no site is skipped: on the trefoil with a loop
    beside it, the hosts above, and ``PLACED_HOSTS`` with a loop added."""
    from tests.test_transforms import PLACED_HOSTS

    trefoil = fixture("trefoil")
    hosts = [Diagram("t", trefoil.nodes, ("c9",))]
    hosts += [parse_smg(f"diagram h\n{body}end\n") for body in UNMOVED]
    hosts += [parse_smg(f"diagram h\n{body}loop z9\nend\n") for body in PLACED_HOSTS]
    symmetric = 0
    for d in hosts:
        symmetric += any(gens for _, _, gens in d._piece_canon.values())
        assert _automorphisms(d) == [], d
        for m in CAT.values():
            for direction in (FORWARD, REVERSE):
                sites = find_sites(d, m, direction)
                assert list(_unrepeated(d, sites)) == sites
    assert symmetric >= 8


def reference_search_equivalence(d1, d2, catalog, allowed, budget, unrepeated=False):
    """``search_equivalence`` as it was before it skipped sites by orbit:
    every kept site is applied, and every rewrite coded at once.  With
    ``unrepeated``, sites are skipped by orbit as the search skips them."""
    specs = [catalog[m] for m in allowed]
    c1, c2 = d1.canonical_code(), d2.canonical_code()
    if c1 == c2:
        return MoveSequence(())
    fwd, bwd = {c1: None}, {c2: None}
    frontier_f, frontier_b = [(c1, d1)], [(c2, d2)]

    def expand(frontier, this_side, other_side):
        new_frontier = []
        for here, d in frontier:
            for move in specs:
                for direction in (FORWARD, REVERSE):
                    sites = [s for s in moves.find_sites(d, move, direction)
                             if s.variant in move._kept]
                    for site in _unrepeated(d, sites) if unrepeated else sites:
                        nxt = moves.apply_move(d, move, site)
                        code = nxt.canonical_code()
                        if code in this_side:
                            continue
                        this_side[code] = (here, move.id, site.variant, direction)
                        new_frontier.append((code, replace(nxt)))
                        if code in other_side:
                            return new_frontier, code
                        if len(fwd) + len(bwd) >= budget.max_states:
                            return new_frontier, StopIteration
        return new_frontier, None

    for _ in range(budget.max_depth):
        if not frontier_f and not frontier_b:
            return None
        if frontier_f and (len(frontier_f) <= len(frontier_b) or not frontier_b):
            frontier_f, hit = expand(frontier_f, fwd, bwd)
        else:
            frontier_b, hit = expand(frontier_b, bwd, fwd)
        if hit is StopIteration:
            return None
        if hit is not None:
            return MoveSequence(_path(fwd, hit) + _path(bwd, hit, back=True))
    return None


def text(seq):
    return None if seq is None else seq.serialize()


#: the ``max_states`` of the exactness gate
GATE_STATES = (3, 10, 30, 100, 100_000)


def test_deferred_codes_answer_as_the_eager_search():
    """Coding a rewrite only when its shape meets the other side, or when
    its expansion ends, changes no answer: from every fixture to the ends
    of seeded walks of two and three moves, at every depth from 1 to 3 and
    every ``max_states`` of GATE_STATES, the search answers byte for byte
    as the reference search, which codes every rewrite at once, or both
    answer None.  The reference skips sites by orbit as the search does,
    so that only the deferred codes differ: unpruned, it answers otherwise
    on the walk from ``three_loops``, where two rewrites at sites that an
    automorphism swaps have places and codes that differ (ROADMAP item 1)."""
    answers = {"found": 0, "none": 0}
    for name in fixture_names():
        for steps in (2, 3):
            target = walk(fixture(name), steps, random.Random(f"{name}.gate.{steps}"))[-1]
            for depth in (1, 2, 3):
                for states in GATE_STATES:
                    budget = SearchBudget(depth, states)
                    got = search_equivalence(fixture(name), target, CAT, WALK_MOVES, budget)
                    want = reference_search_equivalence(fixture(name), target, CAT, WALK_MOVES,
                                                        budget, unrepeated=True)
                    assert text(got) == text(want), (name, steps, depth, states)
                    answers["none" if want is None else "found"] += 1
    assert answers["found"] > 50 and answers["none"] > 50, answers


def test_kind_deltas_are_sound():
    """A rewrite's node-kind counts, read off its host and the move's
    cached kind delta without a splice, are those of the built rewrite:
    at every site of every unoriented move, both directions, on the
    fixtures, their one-move rewrites, hosts with places and hosts with
    a loop."""
    from test_diagram import anchored_hosts
    from test_groups import fixtures_and_first_rewrites
    from tests.test_transforms import PLACED_HOSTS

    from smg.moves import _rewrite_counts

    hosts = list(fixtures_and_first_rewrites()) + anchored_hosts()
    hosts.append(Diagram("t", fixture("trefoil").nodes, ("c9",)))
    hosts += [parse_smg(f"diagram h\n{body}end\n") for body in UNMOVED]
    hosts += [parse_smg(f"diagram h\n{body}loop z9\nend\n") for body in PLACED_HOSTS]
    checked, changed = 0, 0
    for d in hosts:
        for m in CAT.values():
            for direction in (FORWARD, REVERSE):
                for site in find_sites(d, m, direction):
                    want = apply_move(d, m, site).counts
                    assert _rewrite_counts(d, m, site) == want, (d.name, m.id, site)
                    checked += 1
                    changed += want != d.counts
    assert checked > 20_000 and changed > 10_000, (checked, changed)


@pytest.mark.parametrize("states", [3618, 3619, 4400, 100_000])
def test_criterion_7_answers_as_the_eager_search_under_a_budget(states):
    """Criterion 7's search on ``d2m6`` stores 3,619 states when it meets
    the other side: at 3,618 the eager search is cut first, at 3,619 and
    4,400 the stored and pending states reach the budget in the last
    expansion, so the rest of it is coded at once, and at 100,000 they do
    not.  Each answers as the reference search does with sites skipped by
    orbit."""
    d = fixture("d2m6")
    target = apply_move(d, CAT["O12p"], find_sites(d, CAT["O12p"], FORWARD)[0])
    allowed = ["O1", "O2", "O3", "O4", "O4p", "O9", "O9p", "O10", "O12"]
    budget = SearchBudget(12, states)
    got = search_equivalence(d, target, CAT, allowed, budget)
    want = reference_search_equivalence(d, target, CAT, allowed, budget, unrepeated=True)
    assert text(got) == text(want)
    assert (got is None) == (states < 3619)


def watched(monkeypatch, search, d, target, depth: int):
    """The answer's text, the rewrites made, by either route, and the set
    of codes of ``search`` from ``d`` to ``target`` over WALK_MOVES."""
    _, _, work = watch_states(monkeypatch, moves, (d, target))
    seq = search(d, target, CAT, WALK_MOVES, SearchBudget(depth, 100_000))
    monkeypatch.undo()
    return None if seq is None else seq.serialize(), work["applies"], work["distinct"]


@pytest.mark.parametrize("depth", [2, 3])
def test_search_answers_and_codes_match_the_unpruned_search(monkeypatch, depth):
    """From every fixture to the end of a seeded walk of ``depth`` moves,
    the search answers byte for byte as the unpruned one, makes rewrites of
    the same set of codes, and fewer rewrites in all."""
    fewer = 0
    for name in fixture_names():
        d = fixture(name)
        target = walk(d, depth, random.Random(f"{name}.{depth}"))[-1]
        got, applies, codes = watched(monkeypatch, search_equivalence, d, target, depth)
        want, ref_applies, ref_codes = watched(monkeypatch, reference_search_equivalence,
                                               fixture(name), target, depth)
        assert (got, codes) == (want, ref_codes), name
        assert applies <= ref_applies, name
        fewer += ref_applies - applies
    assert fewer > 0


def kink_search() -> tuple:
    """``(rewrites made, distinct codes, answer text)`` of the search from
    ``kink`` to the end of a seeded three-move walk, where the search meets
    many symmetric diagrams."""
    target = walk(fixture("kink"), 3, random.Random("kink.2"))[-1]
    with pytest.MonkeyPatch.context() as monkeypatch:
        answer, applies, codes = watched(monkeypatch, search_equivalence, fixture("kink"),
                                         target, 3)
    return applies, len(codes), answer


def test_symmetric_search_work_is_pinned():
    """The unpruned search makes 115 rewrites on the kink walk, 49 of them
    distinct; skipping images of applied sites leaves 63 rewrites made,
    by either route, and the codes and the answer as they were."""
    applies, codes, answer = kink_search()
    assert applies < 115
    assert (applies, codes) == (63, 49)
    assert hashlib.sha256(answer.encode()).hexdigest()[:16] == "72e66c647ff665b3"


def test_symmetric_search_repeats_under_other_hash_seeds():
    """Skips follow the order of the sites, never a set's iteration order:
    under two hash seeds the kink search makes the same applies and gives
    the same answer, byte for byte."""
    import smg

    src = os.path.dirname(os.path.dirname(os.path.abspath(smg.__file__)))
    here = os.path.dirname(os.path.abspath(__file__))
    outs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, here]), PYTHONHASHSEED=seed)
        outs.append(subprocess.run(
            [sys.executable, "-c", "import test_site_orbits as t; print(t.kink_search())"],
            env=env, capture_output=True, text=True, timeout=120, check=True).stdout)
    assert outs[0] == outs[1]
    assert outs[0].startswith("(63, 49, ")


def test_heap_search_answers_as_when_every_site_is_applied(monkeypatch):
    """The simplifier's heap skips by orbit too: on the kinked dead end at
    500 states it gives the trace it gives when every kept site is applied,
    with 1,703 applies instead of 1,789: the trace of its 200-state pin
    (``test_simplifier_heap_answer_is_pinned``)."""
    import smg.resolution as resolution
    from smg.resolution import Budget, reidemeister_simplify
    from test_resolution import KINKED_DEAD_END

    def run(unrepeated):
        applies, apply = [0], resolution.apply_move

        def counted(*args):
            applies[0] += 1
            return apply(*args)

        monkeypatch.setattr(moves, "_unrepeated", unrepeated)
        monkeypatch.setattr(resolution, "apply_move", counted)
        _, trace = reidemeister_simplify(parse_smg(KINKED_DEAD_END), Budget(max_states=500))
        monkeypatch.undo()
        return trace.serialize(), applies[0]

    (got, applies), (want, every) = run(_unrepeated), run(lambda d, sites: sites)
    assert got == want
    assert hashlib.sha256(got.encode()).hexdigest()[:12] == "bab6ca695883"
    assert (applies, every) == (1703, 1789)
