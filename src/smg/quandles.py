"""Finite quandles and the coloring-count invariant.

A quandle table is 1-indexed: ``q[i][j] = i * j``.  Colorings assign quandle
elements to the edges and loops of a diagram subject to the local conditions:
the over-strand passes through a crossing unchanged while the under-strand
acts by ``* y``, or by its column inverse when the over-strand runs the other
way (only the over-strand's direction matters), all four ends of a marker
share one color, and the two strands of a singular vertex keep their colors
and must fix each other.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, NamedTuple, Optional

from .diagram import (
    CROSSING,
    SINGULAR,
    Diagram,
    OrientedDiagram,
    SMGSemanticError,
    _cached,
    _port_classes,
    _require,
    _require_count,
    _require_diagram,
    _ties,
)
from .groups import (_build_plan, _check_square, _compiled, _names, _Plan, _plan_source,
                     _table_rows)


@dataclass(frozen=True)
class QuandleTable:
    table: tuple[tuple[int, ...], ...]   # 1-indexed values

    @property
    def n(self) -> int:
        return len(self.table)

    def op(self, x: int, y: int) -> int:
        return self.table[x - 1][y - 1]

    @_cached
    def inv(self) -> tuple[tuple[int, ...], ...]:
        """Column inverses: ``inv[x][y] = z`` with ``z * y = x``."""
        n = self.n
        out = [[0] * n for _ in range(n)]
        for z in range(1, n + 1):
            for y in range(1, n + 1):
                out[self.op(z, y) - 1][y - 1] = z
        return tuple(tuple(r) for r in out)

    def op_inv(self, x: int, y: int) -> int:
        return self.inv[x - 1][y - 1]

    @_cached
    def _op(self) -> tuple[tuple[int, ...], ...]:
        """``table`` on 0-indexed elements."""
        return tuple(tuple(z - 1 for z in row) for row in self.table)

    @_cached
    def _op_inv(self) -> tuple[tuple[int, ...], ...]:
        """``inv`` on 0-indexed elements."""
        return tuple(tuple(z - 1 for z in row) for row in self.inv)

    def check(self) -> None:
        """Raise SMGSemanticError with the first axiom violation unless the
        table is a quandle; the scan runs once per table object."""
        self._checked

    @_cached
    def _checked(self) -> bool:
        issues = check_quandle(self.table)
        if issues:
            raise SMGSemanticError(issues[0])
        return True

    def is_involutory(self) -> bool:
        return self._involutory

    @_cached
    def _involutory(self) -> bool:
        self.check()
        return all(self.op(self.op(x, y), y) == x
                   for x in range(1, self.n + 1) for y in range(1, self.n + 1))

    @_cached
    def _doubled(self) -> QuandleTable:
        """Kamada's doubled quandle, of order 2n: element ``x + e n`` is the
        pair (x, e), and (x, e) * (y, f) = (x * y if f = 0 else x *^-1 y, e).
        Its colourings of one orientation are those of this table summed
        over all orientations, ``e`` giving each component's direction."""
        n, rows = self.n, (self.table, self.inv)
        return QuandleTable(tuple(tuple(rows[f][x][y] + e * n for f in (0, 1) for y in range(n))
                                  for e in (0, 1) for x in range(n)))


def check_quandle(raw: Iterable[Iterable[int]]) -> list[str]:
    """Return a list of axiom violations, each with a witness; empty iff the
    table is a quandle.  The table and each of its rows is a tuple or list."""
    for x in (raw, *raw) if isinstance(raw, (tuple, list)) else (raw,):
        if not isinstance(x, (tuple, list)):
            raise SMGSemanticError(f"check_quandle needs a tuple or list, not {type(x).__name__}")
    table = [list(r) for r in raw]
    n = len(table)
    issues = []
    if not n:
        raise SMGSemanticError("empty quandle table")
    _check_square(table, 1)
    for a in range(1, n + 1):
        if table[a - 1][a - 1] != a:
            issues.append(f"idempotency fails at {a}")
    for y in range(n):
        col = [table[x][y] for x in range(n)]
        if len(set(col)) != n:
            issues.append(f"right invertibility fails in column {y + 1}")
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            for c in range(1, n + 1):
                lhs = table[table[a - 1][b - 1] - 1][c - 1]
                rhs = table[table[a - 1][c - 1] - 1][table[b - 1][c - 1] - 1]
                if lhs != rhs:
                    issues.append(f"self-distributivity fails at ({a},{b},{c})")
                    return issues
    return issues


def quandle_from_rows(rows: Iterable[Iterable[int]]) -> QuandleTable:
    issues = check_quandle(rows)
    if issues:
        raise SMGSemanticError("; ".join(issues))
    return QuandleTable(tuple(tuple(r) for r in rows))


def parse_quandle(text: str) -> QuandleTable:
    """Quandle file: first line n, then n rows of n 1-indexed entries."""
    return quandle_from_rows(_table_rows(text, "quandle"))


def serialize_quandle(q: QuandleTable) -> str:
    lines = [str(q.n)]
    for r in q.table:
        lines.append(" ".join(map(str, r)))
    return "\n".join(lines) + "\n"


@lru_cache(maxsize=None, typed=True)     # typed: 3.0 and True miss the entries of 3 and 1
def dihedral_quandle(n: int) -> QuandleTable:
    """x * y = 2y - x mod n (1-indexed table)."""
    _require_count(n, "dihedral_quandle")
    rows = [[((2 * y - x) % n) + 1 for y in range(n)] for x in range(n)]
    return quandle_from_rows(rows)


def trivial_quandle(n: int) -> QuandleTable:
    return quandle_from_rows([[x + 1] * n for x in range(n)])


def conjugation_quandle(mult: list[list[int]]) -> QuandleTable:
    """Conjugation quandle of a group given by a 0-indexed multiplication
    table: x * y = y^-1 x y, returned 1-indexed."""
    n = len(mult)
    _check_square(mult, 0)
    identity = next((e for e in range(n) if all(mult[e][x] == x for x in range(n))), None)
    if identity is None:
        raise SMGSemanticError("no identity")
    inv = [next((y for y in range(n) if mult[x][y] == identity), None) for x in range(n)]
    if None in inv:
        raise SMGSemanticError(f"element {inv.index(None)} has no inverse")
    rows = [[mult[mult[inv[y]][x]][y] + 1 for y in range(n)] for x in range(n)]
    return quandle_from_rows(rows)


#: the four-element involutory quandle of the headline coloring count
FOUR_QUANDLE = QuandleTable((
    (1, 1, 2, 2),
    (2, 2, 1, 1),
    (4, 4, 3, 3),
    (3, 3, 4, 4),
))


@lru_cache(maxsize=None, typed=True)
def small_quandles(max_order: int = 4) -> tuple[QuandleTable, ...]:
    """All quandles of order <= max_order up to isomorphism."""
    _require_count(max_order, "small_quandles")
    found: list[QuandleTable] = []
    for n in range(1, max_order + 1):
        perms = list(itertools.permutations(range(1, n + 1)))
        # each column is a permutation fixing its own index
        col_opts = []
        for y in range(n):
            col_opts.append([p for p in perms if p[y] == y + 1])
        seen: set = set()
        for cols in itertools.product(*col_opts):
            table = tuple(tuple(cols[y][x] for y in range(n)) for x in range(n))
            if table in seen:
                continue
            if check_quandle(table):
                continue
            # orbit under relabeling
            orbit = set()
            for p in perms:
                relab = tuple(
                    tuple(p[table[p.index(x + 1)][p.index(y + 1)] - 1]
                          for y in range(n))
                    for x in range(n))
                orbit.add(relab)
            if not orbit & seen:
                found.append(QuandleTable(table))
            seen |= orbit
    return tuple(found)


# ---------------------------------------------------------------------------
# colorings


class _Colouring(NamedTuple):
    """A diagram's colouring problem, the same for every quandle and
    orientation: the colour class of each edge and then each loop (the
    arcs of :func:`~smg.diagram._port_classes` under the strict ties, so a
    marker joins all four ends), per crossing and double point its node
    id, kind and port classes, the counting plan with one constraint per
    such node, and the sources of its kernels (see
    :func:`_colouring_kernel`), filled as they are asked for."""

    cls: dict[str, int]
    nodes: list[tuple[str, str, tuple[int, ...]]]
    plan: _Plan
    sources: dict


def _build_colouring(d: Diagram) -> _Colouring:
    """Built once per diagram, as ``Diagram._colouring``.  The plan holds
    for every orientation: a crossing relates ``c[2]`` to ``c[0]`` and
    ``c[1]`` whichever way its strands run."""
    # the over-strand runs through a crossing
    cls = _port_classes(d, lambda nd: ((1, 3),) if nd.kind == CROSSING else _ties(nd, False))
    nodes, shapes = [], []
    for nd in d.nodes:
        c = tuple(cls[e] for e in nd.ports)
        if nd.kind == CROSSING:
            # the two under-strand classes solve from the other two unless
            # they repeat one of them
            out, inn, over = c[2], c[0], c[1]
            shapes.append(((out, inn, over),
                           tuple(x for x, others in ((out, (inn, over)), (inn, (out, over)))
                                 if x not in others)))
        elif nd.kind == SINGULAR:
            shapes.append(((c[0], c[1]), ()))
        else:
            continue
        nodes.append((nd.id, nd.kind, c))
    return _Colouring(cls, nodes, _build_plan(len(set(cls.values())), shapes), {})


def _colouring_problem(d, q: QuandleTable, orientation: Optional[OrientedDiagram],
                       what: str) -> _Colouring:
    """The colouring problem of ``d``, once ``d`` is a diagram,
    ``orientation`` None or one of ``d``, ``q`` a quandle, and ``q``
    involutory or the orientation given."""
    _require_diagram(d, what)
    if orientation is not None and (not isinstance(orientation, OrientedDiagram)
                                    or orientation.base != d):
        raise SMGSemanticError(f"{what} needs an orientation of {d.name!r}")
    _require(q, QuandleTable, what)
    q.check()
    if orientation is None and not q.is_involutory():
        raise SMGSemanticError("a non-involutory quandle needs an orientation")
    return d._colouring


def _colouring_kernel(problem: _Colouring, listing: bool) -> Callable:
    """The compiled kernel of ``problem``, from its source kept on it (see
    :func:`~smg.groups._plan_source`): a function of the order and, per
    node ``k``, the table ``t<k>`` of its relation and, at a crossing, the
    table ``u<k>`` that solves its incoming under-strand (see
    :func:`_tables`).  Colour ``k`` of a class is quandle element ``k+1``."""
    source = problem.sources.get(listing)
    if source is None:
        params, checks, solves = [], [], []
        a = _names(problem.plan)
        for k, (nid, kind, c) in enumerate(problem.nodes):
            if kind == SINGULAR:
                x, y = a[c[0]], a[c[1]]
                params.append(f"t{k}")
                checks.append(((), f"t{k}[{x}][{y}] != {x} or t{k}[{y}][{x}] != {y}"))
                solves.append(None)
                continue
            out, inn, over = a[c[2]], a[c[0]], a[c[1]]
            params += (f"t{k}", f"u{k}")
            checks.append(((), f"{out} != t{k}[{inn}][{over}]"))
            solves.append({c[2]: ((), f"t{k}[{inn}][{over}]"),
                           c[0]: ((), f"u{k}[{out}][{over}]")})
        source = problem.sources[listing] = _plan_source(
            problem.plan, tuple(params), checks, lambda ci, v: solves[ci][v], listing)
    return _compiled(source)


def _tables(problem: _Colouring, q: QuandleTable,
            orientation: Optional[OrientedDiagram]) -> list:
    """The arguments of the kernel of ``problem`` for ``q`` and the
    orientation.  ``c[2] = c[0] * c[1]`` by ``op`` when the over-strand
    comes in at port 1 and by ``op_inv`` at port 3, whichever way the
    under-strand runs: reversing it swaps ``c[0]`` and ``c[2]`` and flips
    the sign.  The other table solves ``c[0]`` from the other two."""
    op, op_inv = q._op, q._op_inv
    flows = None if orientation is None else orientation._flows
    args = [q.n]
    for nid, kind, _ in problem.nodes:
        if kind == SINGULAR:
            args.append(op)
        elif flows is None or flows[nid][1] == 1:
            args += (op, op_inv)
        else:
            args += (op_inv, op)
    return args


def colorings(d: Diagram, q: QuandleTable,
              orientation: Optional[OrientedDiagram] = None) -> list[dict]:
    """All quandle colorings of the diagram's edges and loops, in
    lexicographic order of their colour class vectors.

    Orientation is required unless the quandle is involutory; with an
    involutory quandle the under-strand relation is direction-free.
    """
    problem = _colouring_problem(d, q, orientation, "colorings")
    found = sorted(_colouring_kernel(problem, True)(*_tables(problem, q, orientation)))
    return [{v: c[k] + 1 for v, k in problem.cls.items()} for c in found]


def coloring_count(d: Diagram, q: QuandleTable,
                   orientation: Optional[OrientedDiagram] = None) -> int:
    """Number of colorings, for every table by the compiled kernel of the
    diagram's plan (see :func:`~smg.groups._plan_source`), which keeps per
    cut only the colours that crossings and double points still to come
    read: chains of clasped circles and sums of trefoils cost time linear
    in their length."""
    _colouring_problem(d, q, orientation, "coloring_count")
    return _search_count(d, q, orientation)


def _search_count(d: Diagram, q: QuandleTable, orientation: Optional[OrientedDiagram]) -> int:
    problem = d._colouring
    return _colouring_kernel(problem, False)(*_tables(problem, q, orientation))
