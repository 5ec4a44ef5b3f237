"""Rewrites are coded on integer darts exactly as ``apply_move`` codes them.

``moves._coded`` gives ``apply_move(d, move, site).canonical_code()`` and
the state a search holds.  It splices on ``d``'s integer dart table
(``moves._host``) without building the rewrite, and holds the state as
``(d, move, site)``, except exactly when ``d`` has loops or places or the
splice closes a strand: then it builds the rewrite.  The gate runs
every unoriented move, in both directions, at every site of the fixtures,
seeded walk states, hosts of several pieces and T(2, n); of the many
one-move rewrites of the fixtures it takes one per code, every site of a
node pattern and a seeded draw of the sites of bare strands.  Sites with
tampered leg targets must fail, or not, as ``apply_move`` fails.
"""

import itertools
import random
from dataclasses import replace

import pytest

from smg.catalog import catalog_map, move_catalog
from smg.diagram import Diagram, parse_smg
from smg.fixtures import fixture, fixture_names
from smg.moves import FORWARD, REVERSE, StaleSiteError, _coded, _host, apply_move, find_sites

from test_diagram import t2_text
from test_moves import WALK_MOVES
from test_transforms import PLACED_HOSTS, split_links

CAT = catalog_map("unoriented")
MOVES = move_catalog("unoriented")
#: one-move rewrites of the fixtures drawn (of 602 codes), and on each the
#: sites of bare strands drawn per move and direction
ONE_MOVE_DRAWN, STRANDS_DRAWN = 200, 3


def walk(d, steps: int, rng: random.Random) -> list:
    """The states after ``d`` of a seeded walk of ``steps`` WALK_MOVES."""
    states = [d]
    for _ in range(steps):
        options = [(CAT[m], s) for m in WALK_MOVES for direction in (FORWARD, REVERSE)
                   for s in find_sites(states[-1], CAT[m], direction)]
        states.append(apply_move(states[-1], *rng.choice(options)))
    return states[1:]


def distinct(hosts) -> list:
    return list({(d.nodes, d.loops, d.anchors): d for d in hosts}.values())


def hosts() -> list:
    """The fixtures (some with loops), the states after two and three moves
    of a seeded walk from each, three loop-free hosts of several pieces,
    T(2, n) for n from 2 to 5, and ``PLACED_HOSTS``, which have places."""
    out = [fixture(name) for name in fixture_names()]
    for name in fixture_names():
        out += walk(fixture(name), 3, random.Random(f"{name}.3"))[1:]
    out += [Diagram(x.name, x.nodes) for x in map(split_links, range(3))]
    out += [parse_smg(t2_text(n)) for n in range(2, 6)]
    out += [parse_smg(f"diagram h\n{body}end\n") for body in PLACED_HOSTS]
    return distinct(out)


def one_move_rewrites(rng: random.Random) -> list:
    """A seeded draw of ONE_MOVE_DRAWN of the rewrites of the fixtures by
    every unoriented move, both directions, at every site, one per code."""
    out = {}
    for name in fixture_names():
        d = fixture(name)
        for m in MOVES:
            for direction in (FORWARD, REVERSE):
                for s in find_sites(d, m, direction):
                    r = apply_move(d, m, s)
                    out.setdefault(r.canonical_code(), r)
    return rng.sample(list(out.values()), ONE_MOVE_DRAWN)


def sites(d, rng=None):
    """``(move, site)`` for every move, direction and site of ``d``; with
    ``rng``, only STRANDS_DRAWN of the sites of a side of bare strands."""
    for m in MOVES:
        for direction in (FORWARD, REVERSE):
            found = find_sites(d, m, direction)
            if rng is not None and found and m.side(0, direction).through_edges:
                found = rng.sample(found, min(STRANDS_DRAWN, len(found)))
            yield from ((m, s) for s in found)


def check(d, pairs, seen) -> None:
    """``_coded`` codes each rewrite as it is built, on integer darts but
    where that route must decline; ``seen`` counts the cases."""
    host = _host(d)
    for m, s in pairs:
        (got, state), built = _coded(d, host, m, s), apply_move(d, m, s)
        assert got == built.canonical_code(), (d.name, m.id, s)
        if d.loops or d.anchors or built.loops:
            assert type(state) is not tuple, (d.name, m.id, s)
            seen["host" if d.loops or d.anchors else "closed"] += 1
            continue
        assert state == (d, m, s), (d.name, m.id, s)
        pat = m.side(s.variant, s.direction)
        seen["coded"] += 1
        seen["pieces"] += len(built.graph_pieces) > 1
        seen["strands"] += bool(pat.through_edges)
        seen["paired"] += not pat.through_edges and len({t[1] for t in s.leg_targets}) < pat.K


def test_integer_codes_equal_built_codes_on_every_site():
    seen = dict.fromkeys(["coded", "host", "closed", "pieces", "strands", "paired"], 0)
    for d in hosts():
        check(d, sites(d), seen)
    assert seen["coded"] > 10_000 and seen["host"] > 500 and seen["closed"] > 10
    assert seen["pieces"] > 500 and seen["strands"] > 5000 and seen["paired"] > 50


def test_integer_codes_equal_built_codes_on_one_move_rewrites():
    rng = random.Random(1719)
    seen = dict.fromkeys(["coded", "host", "closed", "pieces", "strands", "paired"], 0)
    for d in one_move_rewrites(rng):
        check(d, sites(d, rng), seen)
    assert seen["coded"] > 4000 and seen["host"] > 20 and seen["closed"] > 4
    assert seen["strands"] > 2000 and seen["paired"] > 400


def outcome(call):
    """What ``call`` gave: its result, or the typed error."""
    try:
        return call()
    except StaleSiteError:
        return StaleSiteError


@pytest.mark.parametrize("name", [n for n in fixture_names() if not fixture(n).loops])
def test_tampered_leg_targets_fail_as_the_splice_fails(name):
    """A site with two of its leg targets swapped, or one repeated in place
    of another, may join strands into a map that is no sphere, or leave a
    dart unpaired: ``_coded`` then raises the StaleSiteError that
    ``apply_move`` raises, and otherwise codes the rewrite as it is built,
    building it exactly where a strand closes.  On a loop-free fixture and
    the states of a seeded three-move walk from it, every site of a node
    pattern and a seeded draw of those of bare strands."""
    counts, rng = {"raised": 0, "coded": 0}, random.Random(f"{name}.swap")
    for d in [fixture(name)] + walk(fixture(name), 3, rng):
        if d.loops or d.anchors:
            continue
        host = _host(d)
        for m, s in sites(d, rng):
            for i, j in itertools.permutations(range(len(s.leg_targets)), 2):
                targets = list(s.leg_targets)
                if i < j:
                    targets[i], targets[j] = targets[j], targets[i]
                else:
                    targets[j] = targets[i]
                tampered = replace(s, leg_targets=tuple(targets))
                want = outcome(lambda: apply_move(d, m, tampered))
                if want is not StaleSiteError:
                    want = want.canonical_code(), bool(want.loops)
                got = outcome(lambda: _coded(d, host, m, tampered))
                if got is not StaleSiteError:
                    # built, not held as a splice, exactly where a strand closes
                    got = got[0], type(got[1]) is not tuple
                assert got == want, (d.name, m.id, tampered)
                counts["raised" if want is StaleSiteError else "coded"] += 1
    assert counts["raised"] > 0 and counts["coded"] > 0, counts
