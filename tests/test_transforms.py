from smg.diagram import enumerate_orientations, parse_smg
from smg.fixtures import fixture
from smg.groups import abelianization, hom_count, groups_up_to_order, wirtinger_presentation
from smg.resolution import NEGATIVE, resolve
from smg.transforms import (
    export_exterior,
    kirby_group,
    profile,
    semi_transform,
)

ORIENTABLE = ["circle", "two_loops", "kink", "hopf", "trefoil",
              "saddle_sphere", "sing_sphere", "fr", "d2m5", "d2m6",
              "d1m5", "d1m6"]


def test_semi_transform_identity_on_classical():
    for name in ("circle", "hopf", "trefoil"):
        d = fixture(name)
        for kind in ("M5", "M6"):
            out = semi_transform(d, kind)
            assert out.canonical_code() == d.canonical_code()


def test_semi_transform_applies_each_replacement_once(monkeypatch):
    """Each vertex is replaced at the first site found at it, and no site is
    applied only to check that it would."""
    import smg.transforms

    n = 16
    chain = parse_smg("diagram chain\n" + "".join(
        f"node v{i:02d} M 0 s{(i - 1) % n} k{i} k{i} s{i}\n" for i in range(n)) + "end\n")
    applied = []
    real = smg.transforms.apply_move
    monkeypatch.setattr(smg.transforms, "apply_move",
                        lambda *args, **kw: applied.append(args[2]) or real(*args, **kw))
    for kind in ("M5", "M6"):
        applied.clear()
        assert semi_transform(chain, kind).is_classical()
        assert 0 < len(applied) <= 2 * n, kind


def test_semi_transform_output_is_classical():
    for name in ("fr", "d2m5", "d2m6", "saddle_sphere"):
        for kind in ("M5", "M6"):
            assert semi_transform(fixture(name), kind).is_classical()


def test_separation_m5():
    p1 = profile(semi_transform(fixture("d1m5"), "M5"))
    p2 = profile(semi_transform(fixture("d2m5"), "M5"))
    assert p1.is_trivial()
    assert 1 in p2.linking
    assert p1 != p2


def test_separation_m6():
    p1 = profile(semi_transform(fixture("d1m6"), "M6"))
    p2 = profile(semi_transform(fixture("d2m6"), "M6"))
    assert p1.is_trivial()
    assert 1 in p2.linking
    assert p1 != p2


def test_profile_crossingless_unlinks_trivial():
    for name in ("circle", "two_loops", "three_loops"):
        assert profile(fixture(name)).is_trivial()


def test_profile_hopf_linking_one():
    assert profile(fixture("hopf")).linking == (1,)


def test_profile_split_loop_insensitive():
    for name in ("hopf", "trefoil", "kink"):
        d = fixture(name)
        text = "\n".join(l for l in __import__("smg.diagram", fromlist=["serialize"])
                         .serialize(d).splitlines() if l != "end")
        bigger = parse_smg(text + "\nloop extra\nend\n")
        assert profile(d) == profile(bigger), name


def test_export_circle():
    k = export_exterior(fixture("circle"))
    assert k.counts() == (1, 0)


def test_export_one_marker_sphere():
    k = export_exterior(fixture("saddle_sphere"))
    assert k.counts() == (2, 1)


def test_export_counts_formula():
    for name in ORIENTABLE:
        d = fixture(name)
        k = export_exterior(d)
        x, m, s = d.counts
        assert k.counts() == (resolve(d, NEGATIVE).component_count(), m + s), name


def test_export_serialization():
    k = export_exterior(fixture("saddle_sphere"))
    text = k.serialize()
    assert "dot " in text and "frame " in text and text.rstrip().endswith("end")


def test_kirby_group_circle():
    k = export_exterior(fixture("circle"))
    p = kirby_group(k)
    assert p.ngens == 1 and p.relators == ()


def test_kirby_group_one_marker_sphere_is_z():
    p = kirby_group(export_exterior(fixture("saddle_sphere")))
    ab = abelianization(p)
    assert ab.free_rank == 1 and ab.torsion == ()


def test_cross_pipeline_abelianization():
    for name in ORIENTABLE:
        d = fixture(name)
        if not enumerate_orientations(d):
            continue
        ab_k = abelianization(kirby_group(export_exterior(d)))
        ab_w = abelianization(wirtinger_presentation(d))
        assert str(ab_k) == str(ab_w), name


def test_cross_pipeline_homs_on_admissible_fixtures():
    # the exterior recipe presents the complement of an actual surface, so
    # finite-quotient counts are compared on the admissible corpus (plus the
    # kinked unknot, whose sole crossing is its own over-pass)
    for name in ("circle", "two_loops", "kink", "saddle_sphere",
                 "sing_sphere", "fr", "d2m5", "d2m6", "d1m5", "d1m6"):
        d = fixture(name)
        kg = kirby_group(export_exterior(d))
        w = wirtinger_presentation(d)
        for gname, g in groups_up_to_order(6):
            assert hom_count(kg, g) == hom_count(w, g), (name, gname)
