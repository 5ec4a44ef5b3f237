"""The benchmark's workloads: seeded inputs, tasks and their checks.

A workload is a list of named tasks run one after another.  Every task
parses fresh ``Diagram`` objects from text, because ``canonical_code`` and
``faces`` are cached on the object: reusing one would make every call after
the first free.  A task raises ``WrongAnswer`` when the program answers
wrongly and ``OutOfBudget`` when a search gives up on a target known to be
reachable; any other exception is the program failing.

All ``smg`` calls go through module attributes (``smg.find_sites``), so that
the span recorder sees the calls made from here.

Why these workloads (see NOTES.md for the measured layer split):

* ``search``: many tiny diagrams; canonicalisation, faces and site search
  dominate, with no group or quandle work.
* ``sweep``: every catalog move at every site of the acceptance fixtures,
  checked against invariants; hom counts and quandle colorings dominate.
* ``scale``: one call per layer on families at growing sizes; the same layers
  as ``search`` on few huge inputs, where super-linear costs show.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import random
from dataclasses import dataclass, field
from typing import Callable

import smg
from smg import cli
from smg.groups import groups_up_to_order
from smg.quandles import dihedral_quandle, serialize_quandle, small_quandles

import families


class WrongAnswer(Exception):
    """The program returned an answer that contradicts the reference."""


class OutOfBudget(Exception):
    """A bounded search returned nothing on a target known to be reachable."""


def check(ok: bool, message: str) -> None:
    if not ok:
        raise WrongAnswer(message)


@dataclass
class Workload:
    tasks: list[tuple[str, Callable[[dict], None]]]
    #: fresh per-pass state shared by the tasks of one pass (memo tables)
    new_state: Callable[[], dict] = field(default=dict)


def set_up() -> None:
    """Work every workload needs before its inputs: catalogs and the group
    and quandle panels (all cached by ``smg``)."""
    smg.move_catalog("unoriented")
    smg.move_catalog("oriented")
    small_quandles(4)
    groups_up_to_order(6)


def _walk(d, k: int, rng: random.Random, catalog: dict, allowed: list[str]):
    """Apply k seeded moves from ``allowed``, each to a diagram not met yet;
    a walk that runs into a dead end starts again."""
    for _restart in range(20):
        cur, seen = d, {d.canonical_code()}
        for _ in range(k):
            for _attempt in range(50):
                move = catalog[rng.choice(allowed)]
                direction = rng.choice((smg.FORWARD, smg.REVERSE))
                sites = smg.find_sites(cur, move, direction)
                if sites:
                    nxt = smg.apply_move(cur, move, rng.choice(sites))
                    if nxt.canonical_code() not in seen:
                        break
            else:
                break
            seen.add(nxt.canonical_code())
            cur = nxt
        else:
            return cur
    raise RuntimeError(f"no walk of {k} moves from {d.name}")


def _relabeled(d, rng: random.Random) -> str:
    """SMG text of ``d`` under seeded node, edge and loop ids that keep the
    order of ``d.nodes``, ``d.edges`` and ``d.loops``.  ``serialize`` lists
    nodes by id and ``find_sites`` walks them in that order, so a shuffled
    naming would change where a search first hits its target, and so its
    work, with the seed."""
    maps = [dict(zip(ids, families.ordered_ids(prefix, len(ids), rng)))
            for ids, prefix in ((d.node_map, "n"), (d.edges, "e"), (d.loops, "c"))]
    return smg.serialize(d.relabeled(*maps))


# -- search -------------------------------------------------------------------

#: the two problems of acceptance criterion 7: host, derived move, allowed
CRITERION_7 = [
    ("d2m5", "O11p", ["O1", "O2", "O3", "O4", "O4p", "O9", "O9p", "O10", "O11"]),
    ("d2m6", "O12p", ["O1", "O2", "O3", "O4", "O4p", "O9", "O9p", "O10", "O12"]),
]
WALK_MOVES = ["O1", "O2", "O3", "O4", "O4p", "O9", "O9p", "O10"]
WALK_HOSTS = ("circle", "two_loops", "kink", "saddle_sphere", "sing_sphere",
              "hopf", "trefoil", "d2m5", "d2m6")
#: walks of WALK_LENGTH moves per host.  Each walk is drawn from its task
#: name and the seed renames its ends: which moves and sites a target is
#: away from sets most of a search's cost, and drawing them from the seed
#: spread the latencies of single runs by more than the bounds.  Walks of
#: one move end in a few milliseconds and would put the median task among
#: trivial ones.  Many distinct walks, each run once, spread the latencies
#: more evenly around the median and the tail than fewer walks run
#: several times, whose repeated latencies come in clumps.
WALK_LENGTH = 2
WALKS_PER_HOST = 9
#: targets three WALK_MOVES away from a fixture on which search_equivalence
#: returns a sequence that verify_sequence cannot replay (StaleSiteError).
#: About one seeded walk of three moves in fifteen hits this defect and no
#: walk of two did, so it is kept as these fixed inputs, which fail the same
#: way on every seed.
REPLAY_DEFECTS = {
    "two_loops": """\
diagram two_loops
node q0 X t1 t0 t0 t1
loop c0
place c0 in q0.3
end
""",
    "circle": """\
diagram circle
node q0 X t4 t6 t5 t3
node q1 X t4 t3 t2 t2
node q2 X t6 t1 t1 t5
end
""",
}


def _search_task(start: str, target: str, allowed: list[str], depth: int,
                 catalog: dict):
    budget = smg.SearchBudget(max_depth=depth, max_states=100_000)

    def run(state: dict) -> None:
        d1, d2 = smg.parse_smg(start), smg.parse_smg(target)
        seq = smg.search_equivalence(d1, d2, catalog, allowed, budget)
        if seq is None:
            raise OutOfBudget(f"no sequence within depth {depth}")
        check(len(seq) <= depth, f"sequence of {len(seq)} moves > {depth}")
        end = smg.verify_sequence(d1, seq, catalog)
        check(end.canonical_code() == d2.canonical_code(), "replay misses the target")

    return run


def search(seed: int) -> Workload:
    rng = random.Random(seed)
    catalog = smg.catalog_map("unoriented")
    criterion_7 = []
    for host, derived, allowed in CRITERION_7:
        d = smg.fixture(host)
        site = smg.find_sites(d, catalog[derived], smg.FORWARD)[0]
        target = smg.apply_move(d, catalog[derived], site)
        criterion_7.append((f"search.c7.{host}",
                            _search_task(smg.serialize(d), smg.serialize(target),
                                         allowed, 12, catalog)))
    walks = []
    for host in WALK_HOSTS:
        for i in range(WALKS_PER_HOST):
            d = smg.fixture(host)
            name = f"search.walk.{host}.{i}"
            target = _walk(d, WALK_LENGTH, random.Random(name), catalog, WALK_MOVES)
            walks.append((name, _search_task(_relabeled(d, rng), _relabeled(target, rng),
                                             WALK_MOVES, WALK_LENGTH, catalog)))
    defects = [(f"search.replay_defect.{host}",
                _search_task(smg.serialize(smg.fixture(host)), target, WALK_MOVES, 3, catalog))
               for host, target in REPLAY_DEFECTS.items()]
    # A third of the walks run before, between and after the criterion-7
    # problems each, so that the walks meet the heap in every state a pass
    # leaves it in.
    thirds = [walks[k::3] for k in range(3)]
    return Workload(thirds[0] + criterion_7[:1] + thirds[1] + criterion_7[1:] + thirds[2]
                    + defects)


# -- sweep --------------------------------------------------------------------

FIXTURES = ["circle", "two_loops", "kink", "hopf", "trefoil", "saddle_sphere",
            "sing_sphere", "fr", "d2m5", "d2m6", "d1m5", "d1m6"]
#: hosts whose semi-invariant profiles acceptance criterion 6 checks
PROFILE_HOSTS = [f for f in FIXTURES if f not in ("fr", "hopf", "trefoil")]
#: sites acceptance criterion 4 finds on the fixtures, both catalogs
FIXTURE_SITES = 2254
#: variants one move away from a host, drawn from their names like the walks
#: of ``search`` and renamed by the seed.  Their tasks take about as long as
#: the tasks near the median, which they make denser and so steadier.
VARIANT_HOSTS = ("circle", "two_loops", "kink", "saddle_sphere", "sing_sphere")
VARIANTS_PER_HOST = 3
VARIANT_MOVES = ["O1", "O2", "O3", "O4", "O5", "O6", "O7", "O8", "O9", "O10"]


class Observables:
    """Acceptance criterion 4's invariants, memoised by canonical code."""

    def __init__(self):
        self.cache: dict[bytes, tuple] = {}
        self.panel = small_quandles(4)
        self.groups = groups_up_to_order(6)

    def _colorings(self, d) -> tuple:
        out = []
        for q in self.panel:
            if q.is_involutory():
                out.append(smg.coloring_count(d, q))
            else:
                out.append(sum(smg.coloring_count(d, q, o)
                               for o in smg.enumerate_orientations(d)))
        return tuple(out)

    def of(self, d) -> tuple:
        code = d.canonical_code()
        if code not in self.cache:
            w = smg.wirtinger_presentation(d)
            self.cache[code] = (
                smg.is_admissible(d)["verdict"],
                smg.resolve(d, smg.NEGATIVE).component_count(),
                smg.resolve(d, smg.POSITIVE).component_count(),
                str(smg.abelianization(w)),
                tuple(smg.hom_count(w, g) for _, g in self.groups),
                self._colorings(d),
            )
        return self.cache[code]


def _profile(state: dict, d, kind: str):
    key = (d.canonical_code(), kind)
    if key not in state["profiles"]:
        state["profiles"][key] = smg.profile(smg.semi_transform(d, kind))
    return state["profiles"][key]


def _invariants_task(text: str, mode: str, fixture: bool):
    """Every move of one catalog at every site of one host; each moved
    diagram must keep the host's invariants, shifted by the move's deltas."""

    def run(state: dict) -> None:
        d = smg.parse_smg(text)
        host = smg.enumerate_orientations(d)[0] if mode == "oriented" else d
        base = state["obs"].of(d)
        for move in smg.move_catalog(mode):
            _, _, dln, dlp = move.deltas
            for direction, sg in ((smg.FORWARD, 1), (smg.REVERSE, -1)):
                want = (base[0], base[1] + sg * dln, base[2] + sg * dlp) + base[3:]
                sites = smg.find_sites(host, move, direction)
                if fixture:
                    state["sites"] += len(sites)
                for s in sites:
                    moved = smg.apply_move(host, move, s)
                    moved = moved.base if move.oriented else moved
                    check(state["obs"].of(moved) == want,
                          f"{move.id} {direction} changes the invariants")

    return run


def _profiles_task(text: str):
    """Acceptance criterion 6 on one host: only the slide move O11 (O12) may
    change the f5 (f6) profile."""

    def run(state: dict) -> None:
        d = smg.parse_smg(text)
        b5, b6 = _profile(state, d, "M5"), _profile(state, d, "M6")
        for move in smg.move_catalog("unoriented"):
            for direction in (smg.FORWARD, smg.REVERSE):
                for s in smg.find_sites(d, move, direction):
                    moved = smg.apply_move(d, move, s)
                    p5, p6 = _profile(state, moved, "M5"), _profile(state, moved, "M6")
                    if move.id in ("O11", "O11p"):
                        state["changed5"] += p5 != b5
                    else:
                        check(p5 == b5, f"{move.id} {direction} changes f5")
                    if move.id in ("O12", "O12p"):
                        state["changed6"] += p6 != b6
                    else:
                        check(p6 == b6, f"{move.id} {direction} changes f6")

    return run


def _sweep_totals(state: dict) -> None:
    check(state["sites"] == FIXTURE_SITES,
          f"{state['sites']} sites on the fixtures, want {FIXTURE_SITES}")
    check(state["changed5"] > 0 and state["changed6"] > 0,
          "a slide move left its semi-invariant profile unchanged everywhere")


def sweep(seed: int) -> Workload:
    """One task per host and catalog, one per profile host, and the totals.
    The fixtures keep their names, so that their costs do not move with the
    seed."""
    rng = random.Random(seed)
    catalog = smg.catalog_map("unoriented")
    fixtures = [(name, smg.serialize(smg.fixture(name)), True) for name in FIXTURES]
    variants = []
    for host in VARIANT_HOSTS:
        seen = set()
        for i in itertools.count():
            name = f"{host}~1.{i}"
            d = _walk(smg.fixture(host), 1, random.Random(name), catalog, VARIANT_MOVES)
            if d.canonical_code() not in seen:     # a repeat would only hit the memo
                seen.add(d.canonical_code())
                variants.append((name, _relabeled(d, rng), False))
            if len(seen) == VARIANTS_PER_HOST:
                break
    # variants between the fixtures, so that tasks of every size are spread
    # over the whole pass
    hosts = [h for pair in itertools.zip_longest(fixtures, variants) for h in pair if h]
    tasks = []
    for name, text, fixture in hosts:
        tasks.append((f"sweep.{name}.unoriented",
                      _invariants_task(text, "unoriented", fixture)))
        if smg.enumerate_orientations(smg.parse_smg(text)):
            tasks.append((f"sweep.{name}.oriented",
                          _invariants_task(text, "oriented", fixture)))
        if name in PROFILE_HOSTS:
            tasks.append((f"sweep.{name}.profiles", _profiles_task(text)))
    tasks.append(("sweep.totals", _sweep_totals))

    def new_state() -> dict:
        return {"obs": Observables(), "profiles": {}, "sites": 0,
                "changed5": 0, "changed6": 0}

    return Workload(tasks, new_state)


# -- scale --------------------------------------------------------------------

#: sizes per call; each call runs at two or more sizes so growth shows.  The
#: generated ids keep the family order (``families.ordered_ids``); under a
#: shuffled naming hom_count, coloring_count and tietze_simplify cost up to
#: twenty times more and that cost would move with the seed (see NOTES.md).
T2_CANON = (48, 96, 144)
T2_FACES = (48, 96, 144)
T2_SITES = (3, 6, 12)
T2_ORIENT = (96, 192, 1000)     # 1000 raises RecursionError today
T2_RESOLVE = (96, 192, 300)
T2_GROUP = (24, 48, 96)
T2_HOMS = (8, 32, 64)
T2_FOX = (24, 96, 192)
KINKS = (4, 8, 16)
CHAIN_SEMI = (8, 16)
CHAIN_EXPORT = (4, 8, 12)
CHAIN_KIRBY = (4, 6)            # kirby_group is exponential in n


def _scale_tasks(rng: random.Random, workdir: str) -> list:
    z6 = dict(groups_up_to_order(6))["Z6"]
    d3 = dihedral_quandle(3)
    catalog = smg.catalog_map("unoriented")
    tasks = []

    def add(name, fn):
        tasks.append((f"scale.{name}", lambda state: fn()))

    for n in T2_CANON:
        a, b = families.t2(n, rng), families.t2(n, rng, shuffled=True)
        add(f"canonical_code.t2.{n}", lambda a=a, b=b: check(
            smg.parse_smg(a).canonical_code() == smg.parse_smg(b).canonical_code(),
            "relabelled copies get different codes"))
    for n in T2_FACES:
        t = families.t2(n, rng)
        add(f"faces.t2.{n}", lambda t=t, n=n: check(
            len(smg.parse_smg(t).faces().orbits) == families.faces(n), "face count"))
    for n in T2_SITES:
        t = families.t2(n, rng)
        add(f"find_sites.O2.t2.{n}", lambda t=t, n=n: check(
            len(smg.find_sites(smg.parse_smg(t), catalog["O2"], smg.FORWARD))
            == families.t2_o2_sites(n), "O2 site count"))
    for n in T2_ORIENT:
        t = families.t2(n, rng)
        add(f"enumerate_orientations.t2.{n}", lambda t=t, n=n: check(
            len(smg.enumerate_orientations(smg.parse_smg(t)))
            == 2 ** families.t2_components(n), "orientation count"))
    for n in T2_RESOLVE:
        t = families.t2(n, rng)
        add(f"resolve.t2.{n}", lambda t=t, n=n: check(
            smg.resolve(smg.parse_smg(t), smg.NEGATIVE).component_count()
            == families.t2_components(n), "component count"))
    for n in T2_GROUP:
        t = families.t2(n, rng)

        def group(t=t, n=n):
            w = smg.wirtinger_presentation(smg.parse_smg(t))
            want = families.t2_abelianization(n)
            check(str(smg.abelianization(w)) == want, "abelianization")
            check(str(smg.abelianization(smg.tietze_simplify(w))) == want,
                  "abelianization after Tietze moves")
        add(f"wirtinger_tietze_abelianization.t2.{n}", group)
    for n in T2_HOMS:
        t = families.t2(n, rng)
        add(f"hom_count.Z6.t2.{n}", lambda t=t, n=n: check(
            smg.hom_count(smg.wirtinger_presentation(smg.parse_smg(t)), z6)
            == families.t2_homs_cyclic(n, 6), "hom count"))
    for n in T2_FOX:
        t = families.t2(n, rng)
        add(f"coloring_count.R3.t2.{n}", lambda t=t, n=n: check(
            smg.coloring_count(smg.parse_smg(t), d3) == families.t2_fox3(n),
            "dihedral 3-coloring count"))
    for n in KINKS:
        t = families.kinks(n, rng)

        def admissible(t=t):
            res = smg.is_admissible(smg.parse_smg(t))
            check(res["verdict"] == "yes" and res[smg.POSITIVE].trace is not None
                  and res[smg.NEGATIVE].trace is not None, "admissible with traces")
        add(f"is_admissible.kinks.{n}", admissible)
    for kind in ("M", "S"):
        for n in CHAIN_SEMI:
            t = families.chain(kind, n, rng)
            add(f"semi_transform.chain{kind}.{n}", lambda t=t: check(
                smg.semi_transform(smg.parse_smg(t), "M5").is_classical(),
                "semi-transform leaves a marker or double point"))
        for n in CHAIN_EXPORT:
            t = families.chain(kind, n, rng)
            add(f"export_exterior.chain{kind}.{n}", lambda t=t, n=n, kind=kind: check(
                smg.export_exterior(smg.parse_smg(t)).counts()
                == families.chain_exterior_counts(kind, n), "dotted/framed counts"))
        for n in CHAIN_KIRBY:
            t = families.chain(kind, n, rng)

            def kirby(t=t):
                d = smg.parse_smg(t)
                kirby = str(smg.abelianization(smg.kirby_group(smg.export_exterior(d))))
                check(kirby == str(smg.abelianization(smg.wirtinger_presentation(d))),
                      "Kirby and Wirtinger abelianizations differ")
            add(f"kirby_group.chain{kind}.{n}", kirby)
    tasks += _cli_tasks(rng, workdir)
    return tasks


def _cli_tasks(rng: random.Random, workdir: str) -> list:
    """In-process ``smg`` CLI verbs on generated files, with expected exit
    code and output."""
    files = {
        "t2_9.smg": families.t2(9, rng),
        "t2_24.smg": families.t2(24, rng),
        "t2_6.smg": families.t2(6, rng),
        "t2_96.smg": families.t2(96, rng),
        "kinks_8.smg": families.kinks(8, rng),
        "chainM_8.smg": families.chain("M", 8, rng),
        "r3.q": serialize_quandle(dihedral_quandle(3)),
    }
    os.makedirs(workdir, exist_ok=True)
    path = {}
    for name, text in files.items():
        path[name] = os.path.join(workdir, name)
        with open(path[name], "w") as fh:
            fh.write(text)
    verbs = [
        ("validate.t2.96", ["validate", path["t2_96.smg"]], "ok"),
        ("abelian.t2.24", ["abelian", path["t2_24.smg"]], families.t2_abelianization(24)),
        ("color.t2.9", ["color", path["t2_9.smg"], path["r3.q"]], str(families.t2_fox3(9))),
        ("resolve.t2.96", ["--json", "resolve", path["t2_96.smg"], "--sign", "neg"],
         '"components": 2'),
        ("admissible.kinks.8", ["admissible", path["kinks_8.smg"]], "YES"),
        ("export-kirby.chainM.8", ["--json", "export-kirby", path["chainM_8.smg"]],
         '"dotted": 9'),
        ("move-sites.O2.t2.6", ["move", "sites", path["t2_6.smg"], "--move", "O2"],
         f"{families.t2_o2_sites(6)} site(s)"),
    ]
    tasks = []
    for name, argv, want in verbs:
        def run(state, argv=argv, want=want):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            check(code == 0, f"exit code {code}")
            check(want in out.getvalue(), f"output lacks {want!r}")
        tasks.append((f"scale.cli.{name}", run))
    return tasks


def scale(seed: int, workdir: str) -> Workload:
    return Workload(_scale_tasks(random.Random(seed), workdir))


def build(name: str, seed: int, workdir: str) -> Workload:
    if name == "search":
        return search(seed)
    if name == "sweep":
        return sweep(seed)
    return scale(seed, workdir)
