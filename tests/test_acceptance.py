"""Acceptance gate: every criterion at its stated tolerance, one line each."""

import hashlib
import time

from smg.catalog import catalog_map, move_catalog
from smg.diagram import enumerate_orientations
from smg.fixtures import fixture
from smg.groups import (
    abelianization,
    groups_up_to_order,
    hom_count,
    tietze_simplify,
    wirtinger_presentation,
)
from smg.moves import (
    FORWARD,
    REVERSE,
    SearchBudget,
    apply_move,
    find_sites,
    search_equivalence,
    verify_sequence,
)
from smg.quandles import (
    FOUR_QUANDLE,
    check_quandle,
    coloring_count,
    small_quandles,
)
from smg.resolution import NEGATIVE, POSITIVE, is_admissible, resolve
from smg.transforms import profile, semi_transform

FIXTURES = ["circle", "two_loops", "kink", "hopf", "trefoil", "saddle_sphere",
            "sing_sphere", "fr", "d2m5", "d2m6", "d1m5", "d1m6"]


def report(num, ok, detail, dt):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail} ({dt:.2f}s)"
    print(line)
    assert ok, line


def test_criterion_1_fr_coloring_count():
    t0 = time.time()
    n = coloring_count(fixture("fr"), FOUR_QUANDLE)
    dt = time.time() - t0
    report(1, n == 16 and dt < 1.0, f"#Col_Q(FR) = {n} (want 16)", dt)


def test_criterion_2_paper_quandle():
    t0 = time.time()
    issues = check_quandle(FOUR_QUANDLE.table)
    involutory = FOUR_QUANDLE.is_involutory()
    dt = time.time() - t0
    report(2, not issues and involutory and dt < 0.05,
           f"axioms {'ok' if not issues else issues}, involutory={involutory}", dt)


def test_criterion_3_admissibility():
    results = []
    times = []
    for name, want in [("circle", "yes"), ("sing_sphere", "yes"),
                       ("fr", "yes"), ("hopf", "no")]:
        t0 = time.time()
        res = is_admissible(fixture(name))
        dt = time.time() - t0
        ok = res["verdict"] == want and dt < 1.0
        if want == "yes":
            ok = ok and res[POSITIVE].trace is not None \
                and res[NEGATIVE].trace is not None
        else:
            ok = ok and (res[POSITIVE].obstruction or res[NEGATIVE].obstruction)
        results.append((name, res["verdict"], ok))
        times.append(dt)
    report(3, all(r[2] for r in results),
           "; ".join(f"{n}={v}" for n, v, _ in results), sum(times))


class _Observables:
    def __init__(self):
        self.cache = {}
        self.panel = small_quandles(4)
        self.groups = groups_up_to_order(6)

    def counts_panel(self, d):
        out = []
        for q in self.panel:
            if q.is_involutory():
                out.append(coloring_count(d, q))
            else:
                out.append(sum(coloring_count(d, q, o)
                               for o in enumerate_orientations(d)))
        return tuple(out)

    def of(self, d):
        code = d.canonical_code()
        if code not in self.cache:
            w = wirtinger_presentation(d)
            self.cache[code] = (
                is_admissible(d)["verdict"],
                resolve(d, NEGATIVE).component_count(),
                resolve(d, POSITIVE).component_count(),
                str(abelianization(w)),
                tuple(hom_count(w, g) for _, g in self.groups),
                self.counts_panel(d),
            )
        return self.cache[code]


def test_criterion_4_move_invariance_sweep():
    t0 = time.time()
    obs = _Observables()
    violations = []
    checked = 0

    for name in FIXTURES:
        d = fixture(name)
        base = obs.of(d)
        for m in move_catalog("unoriented"):
            _, _, dln, dlp = m.deltas
            for direction in (FORWARD, REVERSE):
                sg = 1 if direction == FORWARD else -1
                for s in find_sites(d, m, direction):
                    checked += 1
                    after = obs.of(apply_move(d, m, s))
                    want = (base[0], base[1] + sg * dln, base[2] + sg * dlp,
                            base[3], base[4], base[5])
                    if after != want:
                        violations.append((name, m.id, direction))

    for name in FIXTURES:
        d = fixture(name)
        ors = enumerate_orientations(d)
        if not ors:
            continue
        od = ors[0]
        base = obs.of(d)
        for m in move_catalog("oriented"):
            _, _, dln, dlp = m.deltas
            for direction in (FORWARD, REVERSE):
                sg = 1 if direction == FORWARD else -1
                for s in find_sites(od, m, direction):
                    checked += 1
                    after = obs.of(apply_move(od, m, s).base)
                    want = (base[0], base[1] + sg * dln, base[2] + sg * dlp,
                            base[3], base[4], base[5])
                    if after != want:
                        violations.append((name, m.id, direction))
    dt = time.time() - t0
    report(4, not violations and dt < 300,
           f"{checked} sites, {len(violations)} violations "
           f"{sorted(set(violations))[:4]}", dt)


def test_criterion_5_semi_invariant_separation():
    t0 = time.time()
    p1 = profile(semi_transform(fixture("d1m5"), "M5"))
    p2 = profile(semi_transform(fixture("d2m5"), "M5"))
    dt1 = time.time() - t0
    t0 = time.time()
    q1 = profile(semi_transform(fixture("d2m6"), "M6"))
    q2 = profile(semi_transform(fixture("d1m6"), "M6"))
    dt2 = time.time() - t0
    ok = p1.is_trivial() and 1 in p2.linking and p1 != p2 \
        and q2.is_trivial() and 1 in q1.linking and q1 != q2 \
        and dt1 < 1.0 and dt2 < 1.0
    report(5, ok,
           f"f5(D1M5) trivial={p1.is_trivial()}, f5(D2M5) linking={p2.linking}; "
           f"f6(D1M6) trivial={q2.is_trivial()}, f6(D2M6) linking={q1.linking}",
           dt1 + dt2)


def test_criterion_6_semi_invariance():
    t0 = time.time()
    cache = {}

    def prof(d, kind):
        key = (d.canonical_code(), kind)
        if key not in cache:
            cache[key] = profile(semi_transform(d, kind))
        return cache[key]

    cat = move_catalog("unoriented")
    viol5, viol6 = [], []
    changed5 = changed6 = 0
    for name in FIXTURES:
        if name in ("fr", "hopf", "trefoil"):
            continue  # transform profiles of the larger fixtures are slow
        d = fixture(name)
        b5, b6 = prof(d, "M5"), prof(d, "M6")
        for m in cat:
            for direction in (FORWARD, REVERSE):
                for s in find_sites(d, m, direction):
                    d2 = apply_move(d, m, s)
                    p5, p6 = prof(d2, "M5"), prof(d2, "M6")
                    if m.id in ("O11", "O11p"):
                        changed5 += p5 != b5
                    elif p5 != b5:
                        viol5.append((name, m.id))
                    if m.id in ("O12", "O12p"):
                        changed6 += p6 != b6
                    elif p6 != b6:
                        viol6.append((name, m.id))
    dt = time.time() - t0
    ok = not viol5 and not viol6 and changed5 > 0 and changed6 > 0 and dt < 60
    report(6, ok,
           f"f5 gates: {sorted(set(viol5))}, changed by slide: {changed5}; "
           f"f6 gates: {sorted(set(viol6))}, changed: {changed6}", dt)


def test_criterion_7_derived_move_realizability():
    cat = catalog_map("unoriented")
    lengths = {}
    t_all = 0.0
    # answer: sha256 of the found sequence's serialize(), 16 hex digits
    for host, primed, allowed, answer in [
        ("d2m5", "O11p", ["O1", "O2", "O3", "O4", "O4p", "O9", "O9p", "O10", "O11"],
         "7fd9ee99f3cdd0b9"),
        ("d2m6", "O12p", ["O1", "O2", "O3", "O4", "O4p", "O9", "O9p", "O10", "O12"],
         "aa451f4c33f9b1aa"),
    ]:
        d = fixture(host)
        site = find_sites(d, cat[primed], FORWARD)[0]
        target = apply_move(d, cat[primed], site)
        t0 = time.time()
        seq = search_equivalence(d, target, cat, allowed,
                                 SearchBudget(max_depth=12, max_states=100_000))
        dt = time.time() - t0
        t_all += dt
        ok = seq is not None and dt < 120
        if ok:
            replay = verify_sequence(d, seq, cat)
            ok = replay.canonical_code() == target.canonical_code()
            lengths[primed] = len(seq)
        if not ok:
            report(7, False, f"{primed} realization failed", dt)
        got = hashlib.sha256(seq.serialize().encode()).hexdigest()[:16]
        if got != answer:
            report(7, False, f"{primed} answer {got} is not the pinned {answer}", dt)
    report(7, True,
           f"realized lengths (derived values): {lengths}", t_all)


def test_criterion_8_group_pipeline():
    from smg.transforms import export_exterior, kirby_group

    t0 = time.time()
    bad = []
    for name in FIXTURES:
        d = fixture(name)
        if not enumerate_orientations(d):
            continue
        ab_k = str(abelianization(kirby_group(export_exterior(d))))
        ab_w = str(abelianization(wirtinger_presentation(d)))
        if ab_k != ab_w:
            bad.append(name)
    circ = tietze_simplify(wirtinger_presentation(fixture("circle")))
    dt = time.time() - t0
    ok = not bad and circ.ngens == 1 and circ.relators == () and dt < 10
    report(8, ok, f"mismatches={bad}, wirtinger(CIRCLE) -> {circ}", dt)


def test_criterion_9_oracle_equivalences():
    import itertools

    from tests.test_diagram import brute_force_isomorphic
    from tests.test_quandles import exhaustive_count

    t0 = time.time()
    corpus = {n: fixture(n) for n in FIXTURES}
    # add relabeled and moved variants
    cat = catalog_map("unoriented")
    k = fixture("kink")
    corpus["kink_moved"] = apply_move(k, cat["O1"], find_sites(k, cat["O1"], FORWARD)[0])
    corpus["circle_relab"] = fixture("circle")
    fr = fixture("fr")
    corpus["fr_relab"] = fr.relabeled({nd.id: f"z{i}" for i, nd in enumerate(fr.nodes)},
                                      {e: f"w{i}" for i, e in enumerate(fr.edges)})
    iso_ok = True
    for (n1, d1), (n2, d2) in itertools.combinations(corpus.items(), 2):
        if len(d1.nodes) > 12 or len(d2.nodes) > 12:
            continue
        same = d1.canonical_code() == d2.canonical_code()
        if same != brute_force_isomorphic(d1, d2):
            iso_ok = False
            break

    col_ok = True
    for name in FIXTURES:
        d = fixture(name)
        if len(d.edges) > 8:
            continue
        if coloring_count(d, FOUR_QUANDLE) != exhaustive_count(d, FOUR_QUANDLE):
            col_ok = False
            break
    dt = time.time() - t0
    report(9, iso_ok and col_ok and dt < 60,
           f"canonical-vs-bruteforce ok={iso_ok}, "
           f"colorings-vs-exhaustive ok={col_ok}", dt)
