import random
from fractions import Fraction

import pytest

from pdbundle import generators
from pdbundle.complexes import SimplicialComplex, ValidationError, simplex_id
from pdbundle.generators import (
    gen_image_fibration,
    gen_instability,
    gen_monodromy,
    image_complex,
    instability_values_at,
    parse_ppm,
)
from pdbundle.persistence import diagrams_by_degree
from pdbundle.serialize import canonical_dumps, fibration_to_json
from pdbundle.stratify import build_stratification, filtration_at

import image_oracle
from conftest import (A, B, C, D, deg1_pairs, pairs_for_filtration, quadrant_of,
                      random_ppm)

F = Fraction


def test_monodromy_fibration_shape(mono_fib):
    assert mono_fib.complex.n == 11
    assert len(mono_fib.mesh.vertices) == 9
    assert len(mono_fib.mesh.triangles) == 8
    # axes lie on mesh edges: every spoke from the origin
    spokes = {tuple(sorted(t[:2])) for t in mono_fib.mesh.triangles}
    assert (0, 1) in spokes and (0, 3) in spokes and (0, 5) in spokes and (0, 7) in spokes


def test_monodromy_sign_conditions(mono_fib):
    for x, y in [(F(1, 3), F(2, 3)), (F(-2, 3), F(1, 5)),
                 (F(-1, 7), F(-3, 4)), (F(5, 8), F(-1, 8))]:
        vals = filtration_at(mono_fib, (x, y))
        assert (vals[A] > vals[B]) == (y > 0)
        assert (vals[C] > vals[D]) == (x > 0)
        assert min(vals[C], vals[D]) > max(vals[A], vals[B]) > 0


def test_monodromy_quadrant_pair_sets(mono_fib):
    K = mono_fib.complex
    expected = {"Q1": {(A, C), (B, D)}, "Q2": {(A, C), (B, D)},
                "Q4": {(A, C), (B, D)}, "Q3": {(A, D), (B, C)}}
    for quad, (x, y) in [("Q1", (F(1, 2), F(1, 2))), ("Q2", (F(-1, 2), F(1, 2))),
                         ("Q3", (F(-1, 2), F(-1, 2))), ("Q4", (F(1, 2), F(-1, 2)))]:
        ps = pairs_for_filtration(K, filtration_at(mono_fib, (x, y)))
        assert deg1_pairs(K, ps) == expected[quad]


def test_monodromy_is_globally_affine(mono_fib):
    # values at any convex combination interpolate: check the fan is one
    # global affine function per simplex
    import random
    rng = random.Random(55)
    for _ in range(50):
        x = F(rng.randint(-8, 8), 8)
        y = F(rng.randint(-8, 8), 8)
        vals = filtration_at(mono_fib, (x, y))
        assert vals[A] == 2 + y and vals[B] == 2 - y
        assert vals[C] == 10 + x and vals[D] == 10 - x


def test_instability_report_exact():
    report = gen_instability(F(1, 10), F(10))
    assert report["assertion"] == "passed"
    assert F(report["sup_filtration_distance"]) < F(1, 10)
    best = min(F(v) for v in report["max_vine_distance_sq_by_matching"].values())
    assert best >= 100
    assert F(report["delta"]) == F(1, 400)


def test_instability_vine_case_structure():
    report = gen_instability(F(1, 10), F(10))
    delta = F(report["delta"])
    ts = [F(t) for t in report["params"]]
    vines = report["vines"]["plus"]
    v1 = next(v for v in vines if v["labels"][0] == ["0-1", "0-2-3"])  # (a, d)
    v2 = next(v for v in vines if v["labels"][0] == ["0-2", "0-1-2"])  # (b, c)
    for t, lab1, lab2 in zip(ts, v1["labels"], v2["labels"]):
        if t <= -delta / 2:
            assert lab1 == ["0-1", "0-2-3"] and lab2 == ["0-2", "0-1-2"]
        else:
            assert lab1 == ["0-2", "0-2-3"] and lab2 == ["0-1", "0-1-2"]
    # minus-path vines switch the other way
    m1 = next(v for v in report["vines"]["minus"]
              if v["labels"][0] == ["0-1", "0-2-3"])
    assert m1["labels"][-1] == ["0-1", "0-1-2"]  # (a, d) -> (a, c)


def test_instability_gap_values():
    # |f(b,(t,t)) - f(a,(t,t))| = 2M exactly once |t| >= 1
    m = F(10)
    for t in (F(1), F(3, 2), F(-2)):
        vals = instability_values_at(t, t, m)
        assert abs(vals[B] - vals[A]) == 2 * m
        assert abs(vals[D] - vals[C]) == 2 * m
    vals = instability_values_at(F(1, 2), F(1, 2), m)
    assert abs(vals[B] - vals[A]) == m


def test_instability_zero_gap_degenerate():
    report = gen_instability(F(1, 10), F(0))
    assert report["assertion"] == "skipped"
    assert "warning" in report
    assert F(report["sup_filtration_distance"]) == 0


def _seed_gamma_minus(t, delta):
    """The minus path as the generator once wrote it beside the plus path."""
    if abs(t) >= delta:
        return (t, t)
    if t < 0:
        return (delta + 2 * t, -delta)
    return (delta, -delta + 2 * t)


@pytest.mark.parametrize("epsilon,gap,delta", [
    (F(2), F(1), F(1, 2)), (F(1, 2), F(1), F(1, 8)), (F(1, 10), F(10), F(1, 400)),
    (F(1, 10), F(0), F(1, 4)),
])
def test_instability_minus_path_is_the_plus_path_mirrored(monkeypatch, epsilon,
                                                          gap, delta):
    """gen_instability evaluates the plus path and then the minus path at
    every param; the minus points are those of the written-out formula."""
    points = []
    values_at = generators.instability_values_at

    def recording(x, y, m):
        points.append((x, y))
        return values_at(x, y, m)

    monkeypatch.setattr(generators, "instability_values_at", recording)
    report = gen_instability(epsilon, gap)
    ts = generators._instability_params(delta)
    assert F(report["delta"]) == delta and report["params"] == [str(t) for t in ts]
    assert points[len(ts):] == [_seed_gamma_minus(t, delta) for t in ts]


def test_instability_rejects_bad_params():
    with pytest.raises(ValidationError):
        gen_instability(F(0), F(1))


PPM_1PX = "P3\n1 1 255\n7 200 30\n"

PPM_4x4 = "P3\n4 4 255\n" + "\n".join(
    " ".join(f"{(r * 4 + c) * 10 + 5} {(r * 4 + c) * 3 + 40} {200 - (r * 4 + c) * 7}"
             for c in range(4)) for r in range(4)) + "\n"

PPM_GRAY = "P3\n2 2 9\n1 1 1  3 3 3  5 5 5  7 7 7\n"


def test_parse_ppm():
    w, h, px = parse_ppm(PPM_1PX)
    assert (w, h) == (1, 1) and px == [(7, 200, 30)]
    with pytest.raises(ValidationError):
        parse_ppm("P6\n1 1 255\n")
    with pytest.raises(ValidationError):
        parse_ppm("P3\n2 1 255\n1 2 3\n")
    # comments are fine
    w2, _, _ = parse_ppm("P3 # plain\n1 1 255 # max\n1 2 3\n")
    assert w2 == 1


def channel_filtration(width, height, pixels, channel):
    """Independent oracle: single-channel sublevel filtration built directly
    from the pixel grid (triangles carry the channel value, lower simplices
    the min over coface triangles)."""
    K, tri_pixel = image_complex(width, height)
    values = []
    for s in K.simplices:
        if len(s) == 3:
            values.append(F(pixels[tri_pixel[s]][channel]))
        else:
            values.append(min(F(pixels[pix][channel])
                              for tri, pix in tri_pixel.items()
                              if set(s) <= set(tri)))
    return K, values


@pytest.mark.parametrize("corner,channel", [((1, 0), 0), ((0, 1), 1), ((0, 0), 2)])
def test_image_corners_match_single_channel(corner, channel):
    w, h, px = parse_ppm(PPM_4x4)
    fib, meta = gen_image_fibration(PPM_4x4)
    K = fib.complex
    vals_bundle = filtration_at(fib, corner)
    K2, vals_oracle = channel_filtration(w, h, px, channel)
    assert K2.simplices == K.simplices
    assert [F(v) for v in vals_oracle] == vals_bundle
    dg_bundle = diagrams_by_degree(pairs_for_filtration(K, vals_bundle), K, vals_bundle)
    dg_oracle = diagrams_by_degree(pairs_for_filtration(K2, vals_oracle), K2, vals_oracle)
    assert set(dg_bundle) == set(dg_oracle)
    for q in dg_bundle:
        assert dg_bundle[q].points == dg_oracle[q].points


def test_image_fibration_matches_coface_scan():
    """Lowering each triangle's faces once gives the fibration JSON, byte for
    byte, of scanning every triangle for each lower simplex's cofaces."""
    rng = random.Random(31)
    for _ in range(240):
        ppm = random_ppm(rng, rng.randint(1, 8), rng.randint(1, 5),
                         rng.choice([1, 15, 255]))
        fib, _ = gen_image_fibration(ppm)
        assert (canonical_dumps(fibration_to_json(fib))
                == canonical_dumps(fibration_to_json(image_oracle.gen_image_fibration(ppm))))


def test_image_single_pixel_red_corner():
    fib, _ = gen_image_fibration(PPM_1PX)
    vals = filtration_at(fib, (1, 0))
    byid = {simplex_id(s): v for s, v in zip(fib.complex.simplices, vals)}
    assert byid["0-1-3"] == 7 and byid["0"] == 7  # red channel everywhere
    vals_g = filtration_at(fib, (0, 1))
    assert all(v == 200 for v in vals_g)


def test_image_grayscale_single_stratum():
    fib, _ = gen_image_fibration(PPM_GRAY)
    strat = build_stratification(fib)
    twos = [c for c in strat.cells if c.dim == 2]
    assert len(twos) == 1
    # constant fibration over the base: one simplex order everywhere
    assert len({strat.indexings[c.id] for c in strat.cells}) == 1


def test_image_metadata_documents_divergence():
    _, meta = gen_image_fibration(PPM_4x4)
    assert "note" in meta and "corner" in meta["note"]
