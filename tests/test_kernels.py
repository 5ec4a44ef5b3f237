"""The compiled counting kernels against the interpreter they replaced.

The backtracking interpreter that bound a counting plan to one table with
closures is kept here verbatim as the oracle: every count of homs and of
colourings, and every colouring list, must equal its answer.  Seeded
random presentations, a component of 48 free generators, relators of 500
letters and sums of up to 45 trefoils check against it too the cuts that
split a component with more free variables than one generated function
may nest, and the one statement per relator letter.
"""

from __future__ import annotations

import random
from typing import Callable, Iterator, Optional

import pytest
from test_groups import fixtures_and_first_rewrites
from test_quandles import alexander_quandle, fixtures_and_rewrites, trefoil_sum

from smg.diagram import SINGULAR, Diagram, OrientedDiagram, enumerate_orientations
from smg.groups import (GroupTable, Presentation, _Plan, _search_homs, cyclic_group,
                        groups_up_to_order, symmetric_group)
from smg.quandles import (QuandleTable, _Colouring, _colouring_problem, _search_count, colorings,
                          small_quandles, trivial_quandle)


# ---------------------------------------------------------------------------
# the interpreter, verbatim


_Step = tuple[int, Optional[Callable[[list[int]], int]], list[Callable[[list[int]], bool]]]


def _steps(plan: _Plan, checks: list[Callable[[list[int]], bool]],
           solve: Callable[[int, int], Callable[[list[int]], int]]) -> list[_Step]:
    """The plan bound to one table: per position ``(variable, solve or
    None, checks)``, with ``checks[ci]`` the check of constraint ``ci`` and
    ``solve(ci, v)`` the function that solves ``v`` from it."""
    return [(v, None if ci < 0 else solve(ci, v), [checks[k] for k in ks])
            for (v, ci), ks in zip(plan.order, plan.waiting)]


def _assignments(steps: list[_Step], size: int, start: int, stop: int) -> Iterator[list[int]]:
    """Every assignment of ``0..size-1`` to the variables at positions
    ``start..stop-1`` of :func:`_steps` that passes their checks, in no
    particular order: a solved variable takes its one value, a free one
    tries ``0..size-1``, and each check runs once its last variable is set.
    One list over all variables is yielded each time, updated in place; a
    variable reads -1 while it is unset."""
    values = [-1] * len(steps)
    i = start
    while i >= start:
        if i == stop:
            yield values
            i -= 1
            continue
        v, solve, checks = steps[i]
        if solve is None:
            for x in range(values[v] + 1, size):
                values[v] = x
                for ok in checks:
                    if not ok(values):
                        break
                else:
                    i += 1
                    break
            else:
                values[v] = -1
                i -= 1
        elif values[v] < 0:
            values[v] = solve(values)
            for ok in checks:
                if not ok(values):
                    break
            else:
                i += 1
        else:
            values[v] = -1
            i -= 1


def _count(plan: _Plan, steps: list[_Step], size: int) -> int:
    """Number of assignments: the product of the counts of the connected
    components, as no check spans two of them.  A component that no
    constraint touches is one free variable and counts ``size``."""
    total = 1
    for start, stop in zip(plan.starts, plan.starts[1:] + (len(steps),)):
        if stop == start + 1 and not steps[start][2]:
            total *= size
        else:
            total *= sum(1 for _ in _assignments(steps, size, start, stop))
        if not total:
            break
    return total


def reference_search_homs(p: Presentation, g: GroupTable) -> int:
    """Homomorphisms by the backtracking solver: a generator that occurs
    once in a relator ``u x^e v`` is solved as ``x^e = (v u)^-1`` once the
    others have images."""
    relators = [w for w in p.relators if w]
    letters = [[(abs(l) - 1, g.mult if l > 0 else g.by_inverse) for l in w]
               for w in relators]

    def product(word: list[tuple[int, tuple]]) -> Callable[[list[int]], int]:
        def value(images: list[int]) -> int:
            v = 0
            for i, table in word:
                v = table[v][images[i]]
            return v

        return value

    def check(word: list[tuple[int, tuple]]) -> Callable[[list[int]], bool]:
        whole = product(word)
        return lambda images: whole(images) == 0

    def solve(ci: int, x: int) -> Callable[[list[int]], int]:
        w, word = relators[ci], letters[ci]
        k = next(k for k, l in enumerate(w) if abs(l) - 1 == x)
        rest = product(word[k + 1:] + word[:k])     # v u
        inv = g.inv
        return rest if w[k] < 0 else (lambda images: inv[rest(images)])

    plan = p._plan
    return _count(plan, _steps(plan, [check(word) for word in letters], solve), g.n)


def _colouring_steps(problem: _Colouring, q: QuandleTable,
                     orientation: Optional[OrientedDiagram]) -> list[_Step]:
    """The plan of ``problem`` bound to ``q`` and the orientation, for
    :func:`_assignments`: colour ``k`` of a class is quandle element
    ``k+1``."""
    op, op_inv = q._op, q._op_inv
    checks, roles = [], []
    for nid, kind, c in problem.nodes:
        if kind == SINGULAR:
            x, y = c[0], c[1]
            checks.append(lambda v, x=x, y=y: op[v[x]][v[y]] == v[x] and op[v[y]][v[x]] == v[y])
            roles.append(None)
            continue
        # ``c[2] = c[0] * c[1]`` by ``op`` when the over-strand comes in at
        # port 1 and by ``op_inv`` at port 3, whichever way the under-strand
        # runs: reversing it swaps ``c[0]`` and ``c[2]`` and flips the sign.
        # ``inverse`` solves ``c[0]`` from the other two
        out, inn, over = c[2], c[0], c[1]
        over_in_1 = orientation is None or orientation._flows[nid][1] == 1
        table, inverse = (op, op_inv) if over_in_1 else (op_inv, op)
        checks.append(lambda v, out=out, inn=inn, over=over, table=table:
                      v[out] == table[v[inn]][v[over]])
        roles.append((out, inn, over, table, inverse))

    def solve(ci: int, x: int):
        out, inn, over, table, inverse = roles[ci]
        if x == out:
            return lambda v: table[v[inn]][v[over]]
        return lambda v: inverse[v[out]][v[over]]

    return _steps(problem.plan, checks, solve)


def reference_colorings(d: Diagram, q: QuandleTable,
                        orientation: Optional[OrientedDiagram] = None) -> list[dict]:
    problem = _colouring_problem(d, q, orientation, "colorings")
    steps = _colouring_steps(problem, q, orientation)
    found = sorted(tuple(c) for c in _assignments(steps, q.n, 0, len(steps)))
    return [{v: c[k] + 1 for v, k in problem.cls.items()} for c in found]


def reference_search_count(d: Diagram, q: QuandleTable,
                           orientation: Optional[OrientedDiagram]) -> int:
    problem = d._colouring
    return _count(problem.plan, _colouring_steps(problem, q, orientation), q.n)


# ---------------------------------------------------------------------------
# the kernels against it


def quandle_panel() -> list:
    """Every quandle of order <= 4 and its doubled quandle."""
    return [t for q in small_quandles(4) for t in (q, q._doubled)]


def colouring_cases():
    """``(diagram, quandle, orientation)`` over the fixtures and their
    rewrites, the quandle panel and every orientation, and no orientation
    for an involutory table."""
    for d in fixtures_and_rewrites():
        orientations = enumerate_orientations(d)
        for q in quandle_panel():
            for od in ([None] if q.is_involutory() else []) + orientations:
                yield d, q, od


def test_colouring_counts_match_the_interpreter():
    cases = 0
    for d, q, od in colouring_cases():
        assert _search_count(d, q, od) == reference_search_count(d, q, od), (d.name, q.table)
        cases += 1
    assert cases > 5000


def test_colouring_lists_match_the_interpreter():
    for d, q, od in colouring_cases():
        assert colorings(d, q, od) == reference_colorings(d, q, od), (d.name, q.table)


def test_hom_counts_match_the_interpreter():
    from smg.groups import wirtinger_presentation

    for d in fixtures_and_first_rewrites():
        p = wirtinger_presentation(d)
        for name, g in groups_up_to_order(8):
            assert _search_homs(p, g) == reference_search_homs(p, g), (d.name, name)


def random_presentation(rng: random.Random) -> Presentation:
    """Two to five generators and one to four relators of up to eight
    letters; a relator may repeat a generator or hold it once."""
    ngens = rng.randint(2, 5)
    relators = tuple(tuple(rng.choice((1, -1)) * rng.randint(1, ngens)
                           for _ in range(rng.randint(1, 8)))
                     for _ in range(rng.randint(1, 4)))
    return Presentation(ngens, relators)


def free_in_one_component(plan: _Plan) -> int:
    """The most free variables of one connected component of ``plan``."""
    bounds = zip(plan.starts, plan.starts[1:] + (len(plan.order),))
    return max(sum(ci < 0 for _, ci in plan.order[a:b]) for a, b in bounds)


def test_random_presentations_match_the_interpreter():
    rng = random.Random(2424)
    groups = [g for name, g in groups_up_to_order(8) if name in ("Z3", "S3", "Q8")]
    for _ in range(60):
        p = random_presentation(rng)
        for g in groups:
            assert _search_homs(p, g) == reference_search_homs(p, g), (p.relators, g.n)


def test_wide_components_and_long_relators_match_the_interpreter():
    """``x_{i+1}^2 = x_i^2`` on 48 generators holds no generator once, so
    one component has 48 free variables, split by cuts; into a group of
    odd order all images are equal.  A relator of 500 letters,
    with and without a generator it holds once, is one statement per
    letter."""
    chain = Presentation(48, tuple((i + 2, i + 2, -(i + 1), -(i + 1)) for i in range(47)))
    assert free_in_one_component(chain._plan) == 48
    for g in (cyclic_group(3), cyclic_group(5)):
        assert _search_homs(chain, g) == reference_search_homs(chain, g) == g.n
    s3 = symmetric_group(3)
    for relator, homs in (((1, 2) * 250 + (3,), 36), ((1, 2, -1, -2) * 125, 108)):
        p = Presentation(3, (relator,))
        assert len(relator) >= 500
        assert _search_homs(p, s3) == reference_search_homs(p, s3) == homs


@pytest.mark.parametrize("k", [20, 45])
def test_wide_colouring_components_match_the_interpreter(k):
    """A sum of ``k`` trefoils is one component with more free variables
    than one generated function nests, counted and listed."""
    d = trefoil_sum(k, seed=k)
    assert free_in_one_component(d._colouring.plan) > 30
    od = enumerate_orientations(d)[0]
    for q, o in ((alexander_quandle(5, 2), od), (trivial_quandle(1), None)):
        assert _search_count(d, q, o) == reference_search_count(d, q, o)
        assert colorings(d, q, o) == reference_colorings(d, q, o)
    assert len(colorings(d, alexander_quandle(5, 2), od)) == 5
