"""Document round trips, report golden strings, and exit-code routing."""

import contextlib
import io
import json
import pathlib
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from generators import (
    hollow_triangle,
    polygon,
    projective_plane,
    random_complex,
    torus_7,
)
from oracles import maximal_simplexes
from towertop.abelian import FGAbelianGroup, IntegerMatrix, SmithDecomposition
from towertop.cli import InputProblem, deserialize, main, serialize
from towertop.compactohedral import build_gallery, fence_violation
from towertop.nerve import BallCover, PointSample
from towertop.simplicial import MAX_SIMPLEXES, SimplicialComplex, SimplicialMap
from towertop.tower import Certificate, ComplexTower

SAMPLE = pathlib.Path(__file__).resolve().parent.parent / "sample"

SAMPLE_KINDS = {
    "torus.complex": "complex",
    "projective_plane.complex": "complex",
    "hollow_triangle.complex": "complex",
    "dyadic.tower": "complex_tower",
    "diamond.sample": "point_sample",
    "three_arcs.cover": "cover",
    "six_arcs.cover": "cover",
    "hex_to_tri.map": "map",
    "triangle_filtration.filtration": "filtration",
}


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def path(name: str) -> str:
    return str(SAMPLE / name)


# -- round trips ------------------------------------------------------------


def test_projective_plane_round_trips():
    text = serialize("complex", projective_plane())
    kind, back = deserialize(text)
    assert kind == "complex"
    assert back == projective_plane()


def test_every_sample_file_reserializes_byte_identically():
    for name, expected_kind in SAMPLE_KINDS.items():
        text = (SAMPLE / name).read_text()
        kind, obj = deserialize(text, where=name)
        assert kind == expected_kind
        assert serialize(kind, obj) == text


def test_random_complexes_round_trip():
    rng = random.Random(71)
    for _ in range(20):
        k = random_complex(rng)
        kind, back = deserialize(serialize("complex", k))
        assert back == k


def test_tuple_labels_round_trip():
    t = build_gallery("fence", segments=4, depth=2)
    text = serialize("complex_tower", t)
    kind, back = deserialize(text)
    assert back.levels == t.levels
    assert [b.vertex_map for b in back.bonds] == [b.vertex_map for b in t.bonds]
    assert back.marked_K == t.marked_K
    assert back.marked_L == t.marked_L
    assert serialize("complex_tower", back) == text


def test_map_round_trip():
    f = SimplicialMap(polygon(6), polygon(3), {v: v % 3 for v in range(6)})
    kind, back = deserialize(serialize("map", f))
    assert back.source == f.source
    assert back.target == f.target
    assert back.vertex_map == f.vertex_map


def test_point_sample_and_cover_round_trip():
    s = PointSample([(Fraction(1, 3), Fraction(0)), (Fraction(2), Fraction(-1, 2))], [0])
    kind, back = deserialize(serialize("point_sample", s))
    assert back.points == s.points
    assert back.compactum_mark == s.compactum_mark
    c = BallCover([(0, Fraction(5, 7)), (1, Fraction(2))])
    kind, back = deserialize(serialize("cover", c))
    assert back.elements == c.elements


def test_filtration_round_trip():
    stages = [hollow_triangle().full_subcomplex([1]), hollow_triangle()]
    kind, back = deserialize(serialize("filtration", stages))
    assert back == stages


def _untuple(x):
    return tuple(map(_untuple, x)) if isinstance(x, list) else x


def test_encoded_maximal_simplexes_match_the_proper_subset_rule():
    rng = random.Random(29)
    complexes = [random_complex(rng) for _ in range(80)]
    towers = [
        build_gallery("comb", teeth=5, depth=3),
        build_gallery("fence", segments=5, depth=3),
        build_gallery("solenoid", p=2, depth=3),
        build_gallery("warsaw", depth=3),
    ] + [fence_violation(axiom, 6, 3) for axiom in ("C1", "C2", "C3")]
    for t in towers:
        complexes += [*t.levels, *(t.marked_K or ()), *(t.marked_L or ())]
    for k in complexes:
        maximal = [_untuple(s) for s in json.loads(serialize("complex", k))["payload"]["maximal"]]
        assert len(maximal) == len(set(maximal))
        assert set(maximal) == maximal_simplexes(k.simplexes)


@pytest.mark.parametrize(
    "name, params",
    [("solenoid", {"p": 2, "depth": 8}), ("warsaw", {"depth": 6}), ("comb", {"teeth": 5, "depth": 3})],
)
def test_a_tower_document_encodes_each_distinct_complex_once(monkeypatch, name, params):
    import towertop.cli as cli

    t = build_gallery(name, **params)
    complexes = [*t.levels, *(t.marked_K or ()), *(t.marked_L or ())]
    calls = []
    real = cli._encode_complex
    monkeypatch.setattr(cli, "_encode_complex", lambda k: calls.append(k) or real(k))
    payload = json.loads(serialize("complex_tower", t))["payload"]
    assert len(calls) == len({id(k) for k in complexes}) < len(complexes)
    encoded = payload["levels"] + payload.get("marked_K", []) + payload.get("marked_L", [])
    assert encoded == [json.loads(serialize("complex", k))["payload"] for k in complexes]


@pytest.mark.parametrize(
    "certificate, marks",
    [
        (
            Certificate("shift_family", 1, 2, FGAbelianGroup.from_invariants(1, (2, 4)), "Q/Z"),
            "K",
        ),
        (Certificate("periodic", offset=1, period=2), "KL"),
        (Certificate("shift_family", lim1_display="Prod(Z)/Sum(Z)"), "L"),
        (None, ""),
    ],
)
def test_certificates_and_markings_round_trip(certificate, marks):
    base = build_gallery("fence", segments=5, depth=3)
    t = ComplexTower(
        base.levels,
        base.bonds,
        base.marked_K if "K" in marks else None,
        base.marked_L if "L" in marks else None,
        certificate,
    )
    text = serialize("complex_tower", t)
    kind, back = deserialize(text)
    assert back.certificate == certificate
    assert back.marked_K == t.marked_K and back.marked_L == t.marked_L
    assert serialize("complex_tower", back) == text


# -- malformed documents ----------------------------------------------------


def test_truncated_document_names_the_missing_field():
    with pytest.raises(InputProblem, match="missing field 'payload'"):
        deserialize('{"format_version": "1", "kind": "complex"}')


def test_unknown_format_version_is_rejected_before_parsing():
    text = '{"format_version": "9", "kind": "complex", "payload": {"maximal": "junk"}}'
    with pytest.raises(InputProblem, match="format_version"):
        deserialize(text)


def test_unknown_kind_is_rejected(tmp_path):
    with pytest.raises(InputProblem, match="unknown document kind"):
        deserialize('{"format_version": "1", "kind": "poset", "payload": {}}')
    # no subcommand reads group towers, so their document kind is gone
    doc = tmp_path / "groups.tower"
    doc.write_text('{"format_version": "1", "kind": "group_tower", "payload": {"levels": []}}')
    code, out, err = run_cli(["homology", str(doc), "--dim", "1"])
    assert code == 1 and out == ""
    assert err == f"error: {doc}: unknown document kind 'group_tower'\n"


def test_boolean_labels_are_rejected():
    text = json.dumps(
        {"format_version": "1", "kind": "complex", "payload": {"maximal": [[True, 1]]}}
    )
    with pytest.raises(InputProblem, match="boolean"):
        deserialize(text)


def test_float_radius_is_rejected_with_a_path():
    payload = {"elements": [[0, 0.5]]}
    text = json.dumps({"format_version": "1", "kind": "cover", "payload": payload})
    with pytest.raises(InputProblem, match=r"elements\[0\]"):
        deserialize(text)


def test_invalid_json_names_the_line():
    with pytest.raises(InputProblem, match="line 1: not valid JSON"):
        deserialize("{nope")


# -- exit codes -------------------------------------------------------------


def test_missing_file_exits_one(tmp_path):
    code, out, err = run_cli(["homology", str(tmp_path / "nope.complex"), "--dim", "1"])
    assert code == 1
    assert "nope.complex" in err


def test_wrong_document_kind_exits_one():
    code, out, err = run_cli(["homology", path("hex_to_tri.map"), "--dim", "1"])
    assert code == 1
    assert "expected a complex document, found map" in err


def test_malformed_file_exits_one_naming_the_file(tmp_path):
    bad = tmp_path / "bad.complex"
    bad.write_text('{"format_version": "1", "kind": "complex", "payload": {}}')
    code, out, err = run_cli(["homology", str(bad), "--dim", "1"])
    assert code == 1
    assert "bad.complex" in err and "maximal" in err


def test_unknown_subcommand_exits_one():
    assert run_cli(["frobnicate"])[0] == 1


def test_missing_required_flag_exits_one():
    assert run_cli(["homology", path("torus.complex")])[0] == 1


def test_gallery_missing_parameter_exits_one():
    code, out, err = run_cli(["gallery", "comb", "--depth", "2"])
    assert code == 1
    assert "--teeth" in err


def test_gallery_flags_the_request_does_not_read_exit_one():
    for argv, named in (
        (["warsaw", "--p", "3", "--teeth", "9", "--depth", "2", "--window", "4"], "--teeth, --p"),
        (["comb", "--teeth", "4", "--depth", "2", "--segments", "5"], "--segments"),
        (["fence", "--segments", "4", "--depth", "2", "--p", "2"], "--p"),
        (["solenoid", "--p", "2", "--depth", "2", "--teeth", "3", "--report", "cech"], "--teeth"),
    ):
        code, out, err = run_cli(["gallery", *argv])
        assert (code, out) == (1, "")
        assert err == f"error: gallery {argv[0]} does not read {named}\n"
    for extra in (["--dim", "1"], ["--window", "2"], ["--dim", "0", "--window", "1"]):
        code, out, err = run_cli(["gallery", "warsaw", "--depth", "2", *extra])
        assert (code, out) == (1, "")
        assert err == "error: gallery reads --dim and --window only with --report\n"


def test_gallery_value_constraint_exits_two():
    code, out, err = run_cli(["gallery", "comb", "--teeth", "1", "--depth", "5"])
    assert code == 2


def test_oversized_gallery_exits_one_naming_the_flag_and_builds_nothing(monkeypatch):
    import towertop.compactohedral as compactohedral

    def no_levels(m):
        raise AssertionError("a level was built")

    monkeypatch.setattr(compactohedral, "_polygon", no_levels)
    start = time.perf_counter()
    code, out, err = run_cli(["gallery", "solenoid", "--p", "2", "--depth", "40"])
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    assert err.startswith("error: gallery solenoid: --depth 40 ") and err.count("\n") == 1
    # the width is named when depth 1 is already past the bound
    for argv, flag in (
        (["solenoid", "--p", "10000000", "--depth", "1"], "--p"),
        (["comb", "--teeth", "10000", "--depth", "2"], "--teeth"),
        (["comb", "--teeth", "400", "--depth", "300"], "--depth"),
        (["fence", "--segments", "10000", "--depth", "2"], "--segments"),
        (["warsaw", "--depth", "10000"], "--depth"),
    ):
        code, out, err = run_cli(["gallery", *argv])
        assert code == 1 and err.startswith(f"error: gallery {argv[0]}: {flag} "), err


def test_gallery_vertex_count_matches_the_built_towers():
    from towertop.compactohedral import GALLERY

    for family, params in (
        ("comb", {"teeth": 2, "depth": 1}),
        ("comb", {"teeth": 5, "depth": 3}),
        ("fence", {"segments": 2, "depth": 1}),
        ("fence", {"segments": 4, "depth": 2}),
        ("solenoid", {"p": 2, "depth": 1}),
        ("solenoid", {"p": 3, "depth": 3}),
        ("warsaw", {"depth": 1}),
        ("warsaw", {"depth": 4}),
    ):
        width, _, _, _, vertices, _ = GALLERY[family]
        tower = build_gallery(family, **params)
        built = sum(len(level.vertices) for level in tower.levels)
        assert vertices(params.get(width, 0), params["depth"]) == built, (family, params)
    assert {"comb", "fence", "solenoid", "warsaw"} == set(GALLERY)


def test_math_precondition_exits_two(tmp_path):
    code, out, err = run_cli(
        ["tower-report", path("dyadic.tower"), "--report", "steenrod", "--dim", "-1"]
    )
    assert code == 2
    code, out, err = run_cli(
        ["pinch", path("dyadic.tower"), "--depth", "9", "--dim", "1"]
    )
    assert code == 2


def test_window_below_one_exits_two():
    for argv in (
        ["gallery", "comb", "--teeth", "3", "--depth", "2", "--report", "steenrod"],
        ["tower-report", path("dyadic.tower"), "--report", "steenrod"],
        ["gallery", "comb", "--teeth", "3", "--depth", "2", "--report", "cech"],
        ["tower-report", path("dyadic.tower"), "--report", "cech"],
        ["tower-report", path("triangle_filtration.filtration"), "--report", "petkova"],
    ):
        for dim in ("0", "1"):
            for w in ("0", "-1"):
                code, out, err = run_cli(argv + ["--dim", dim, "--window", w])
                assert code == 2
                assert "window must be at least 1" in err


def test_petkova_interiority_violation_exits_two(tmp_path):
    tri = hollow_triangle()
    stages = [tri.full_subcomplex([2]), tri.full_subcomplex([1, 2]), tri]
    doc = tmp_path / "bad.filtration"
    doc.write_text(serialize("filtration", stages))
    code, out, err = run_cli(
        ["tower-report", str(doc), "--report", "petkova", "--dim", "0"]
    )
    assert code == 2
    assert "not interior" in err


def test_deeply_nested_documents_exit_one_naming_the_file(tmp_path):
    brackets = tmp_path / "brackets.complex"
    brackets.write_text("[" * 3000 + "]" * 3000)
    labels = {}
    for depth in (32, 33, 700):
        label = "[" * depth + "0" + "]" * depth
        labels[depth] = tmp_path / f"label{depth}.complex"
        labels[depth].write_text(
            '{"format_version": "1", "kind": "complex", '
            '"payload": {"maximal": [[' + label + ", 1, 2]]}}"
        )
    for doc in (brackets, labels[33], labels[700]):
        code, out, err = run_cli(["homology", str(doc), "--dim", "1"])
        assert code == 1 and out == ""
        assert err.startswith(f"error: {doc}: ") and "nested too deeply" in err
    # the deepest label accepted
    assert run_cli(["homology", str(labels[32]), "--dim", "1"]) == (0, "H_1 = 0\n", "")


def test_integer_past_the_digit_limit_exits_one_naming_the_file(tmp_path):
    doc = tmp_path / "long_label.complex"
    doc.write_text(
        '{"format_version": "1", "kind": "complex", '
        '"payload": {"maximal": [[' + "7" * 5001 + ", 1]]}}"
    )
    code, out, err = run_cli(["homology", str(doc), "--dim", "1"])
    assert code == 1 and out == ""
    assert err.startswith(f"error: {doc}: not valid JSON")


def test_exponent_rationals_exit_one_naming_the_field(tmp_path):
    # Fraction alone reads "1e5000" as 10**5000; only integers and p/q pass
    sample, cover = tmp_path / "exponent.sample", tmp_path / "exponent.cover"
    sample.write_text(json.dumps(
        {"format_version": "1", "kind": "point_sample", "payload": {"points": [["0", "1e5000"]]}}
    ))
    cover.write_text(json.dumps(
        {"format_version": "1", "kind": "cover", "payload": {"elements": [[0, "1e5000"]]}}
    ))
    for files, field in (
        ((sample, path("three_arcs.cover")), f"{sample}.payload.points[0]"),
        ((path("diamond.sample"), cover), f"{cover}.payload.elements[0]"),
    ):
        code, out, err = run_cli(["lebesgue", "--sample", str(files[0]), "--cover", str(files[1])])
        assert code == 1 and out == ""
        assert err.startswith(f"error: {field}: ") and "'1e5000'" in err
    signed = {"elements": [[0, "+3/2"], [1, "4/6"], [2, 5]]}
    text = json.dumps({"format_version": "1", "kind": "cover", "payload": signed})
    assert [r for _, r in deserialize(text)[1].elements] == [Fraction(3, 2), Fraction(2, 3), 5]


def test_certificate_label_that_is_not_a_string_exits_one_naming_the_field(tmp_path):
    doc = tmp_path / "labelled.tower"
    envelope = json.loads(serialize("complex_tower", build_gallery("comb", teeth=4, depth=2)))
    argv = ["tower-report", str(doc), "--report", "steenrod", "--dim", "0"]
    for label in ({"x": [1, 2]}, ["Prod(Z)"], 7, True):
        envelope["payload"]["certificate"]["lim1_display"] = label
        doc.write_text(json.dumps(envelope))
        for fmt in ("text", "structured"):
            code, out, err = run_cli([*argv, "--format", fmt])
            assert (code, out) == (1, "")
            assert err == (
                f"error: {doc}.payload.certificate: lim1_display must be a string or null\n"
            )
    for label, line in ((None, "lim1: Uncountable"), ("A", "lim1: Uncountable (label: A)")):
        envelope["payload"]["certificate"]["lim1_display"] = label
        doc.write_text(json.dumps(envelope))
        code, out, err = run_cli(argv)
        assert code == 0 and out.splitlines()[1] == line


def test_negative_free_rank_in_a_stable_core_exits_one_naming_the_field(tmp_path):
    # torsion [2] once ended in an IndexError traceback, [2, 4] in a report on Z/2
    doc = tmp_path / "negative.tower"
    envelope = json.loads((SAMPLE / "dyadic.tower").read_text())
    for torsion in ([2], [2, 4]):
        envelope["payload"]["certificate"]["stable_core"] = {"free_rank": -1, "torsion": torsion}
        doc.write_text(json.dumps(envelope))
        proc = subprocess.run(
            [sys.executable, "-m", "towertop.cli", "tower-report", str(doc),
             "--report", "steenrod", "--dim", "1"],
            capture_output=True,
            text=True,
        )
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == (
            f"error: {doc}.payload.certificate.stable_core: free rank must be nonnegative\n"
        )
        assert "Traceback" not in proc.stderr


def _envelope_file(path, kind, payload):
    path.write_text(json.dumps({"format_version": "1", "kind": kind, "payload": payload}))
    return str(path)


def test_a_25_vertex_simplex_document_exits_one_at_once(tmp_path, monkeypatch):
    # its closure would have 2^25 - 1 faces; n = 20 once took 5 s and 239 MB
    def no_closure(*args, **kwargs):
        raise AssertionError("a complex was closed")

    monkeypatch.setattr(SimplicialComplex, "from_maximal", no_closure)
    doc = _envelope_file(tmp_path / "simplex.complex", "complex", {"maximal": [list(range(25))]})
    start = time.perf_counter()
    code, out, err = run_cli(["homology", doc, "--dim", "0"])
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    assert err == (
        f"error: {doc}.payload.maximal: these simplexes may close to more than "
        f"{MAX_SIMPLEXES} faces\n"
    )


def test_the_face_budget_counts_distinct_vertex_sets(tmp_path):
    # 2^16 - 1 faces fit; a repeated vertex or a repeated simplex adds none
    doc = _envelope_file(
        tmp_path / "sixteen.complex",
        "complex",
        {"maximal": [list(range(16)) + [0], list(range(15, -1, -1)), [0, 1]]},
    )
    assert run_cli(["homology", doc, "--dim", "0"]) == (0, "H_0 = Z\n", "")
    two = {"maximal": [list(range(16)), list(range(1, 17))]}
    doc = _envelope_file(tmp_path / "two.complex", "complex", two)
    code, _, err = run_cli(["homology", doc, "--dim", "0"])
    assert code == 1 and err.startswith(f"error: {doc}.payload.maximal: ")


def test_a_nerve_past_the_face_budget_exits_one_naming_the_cover(tmp_path):
    sample = _envelope_file(tmp_path / "two.sample", "point_sample", {"points": [[0, 0], [1, 0]]})
    cover = _envelope_file(tmp_path / "balls.cover", "cover", {"elements": [[0, 5]] * 25})
    start = time.perf_counter()
    code, out, err = run_cli(["nerve", "--sample", sample, "--cover", cover])
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    assert err == (
        f"error: {cover}.payload.elements: their nerve over {sample} may close to more than "
        f"{MAX_SIMPLEXES} faces\n"
    )


def test_vertex_mapped_twice_exits_one_naming_the_pair(tmp_path):
    doc = tmp_path / "twice.map"
    envelope = json.loads((SAMPLE / "hex_to_tri.map").read_text())
    envelope["payload"]["vertex_map"].append([0, 1])
    doc.write_text(json.dumps(envelope))
    assert run_cli(["induced", str(doc), "--dim", "1"]) == (
        1, "", f"error: {doc}.payload.vertex_map[6]: vertex 0 is mapped twice\n"
    )
    # the same image twice is still one vertex mapped twice
    envelope = json.loads((SAMPLE / "dyadic.tower").read_text())
    envelope["payload"]["bonds"][1].insert(1, [["v", 0], ["v", 0]])
    doc = tmp_path / "twice.tower"
    doc.write_text(json.dumps(envelope))
    assert run_cli(["tower-report", str(doc), "--report", "steenrod", "--dim", "0"]) == (
        1, "", f"error: {doc}.payload.bonds[1][1]: vertex ('v', 0) is mapped twice\n"
    )


def test_stray_vertex_map_entry_exits_one_naming_the_pair(tmp_path):
    doc = tmp_path / "stray.map"
    envelope = json.loads((SAMPLE / "hex_to_tri.map").read_text())
    envelope["payload"]["vertex_map"].append([99, 0])
    doc.write_text(json.dumps(envelope))
    assert run_cli(["induced", str(doc), "--dim", "1"]) == (
        1, "", f"error: {doc}.payload.vertex_map[6]: vertex 99 is mapped but not in the source\n"
    )
    envelope = json.loads((SAMPLE / "dyadic.tower").read_text())
    envelope["payload"]["bonds"][1].insert(2, [["w", 0], ["v", 0]])
    doc = tmp_path / "stray.tower"
    doc.write_text(json.dumps(envelope))
    assert run_cli(["tower-report", str(doc), "--report", "steenrod", "--dim", "0"]) == (
        1,
        "",
        f"error: {doc}.payload.bonds[1][2]: vertex ('w', 0) is mapped but not in the source\n",
    )


def test_malformed_pairs_and_surplus_bonds_exit_one_naming_the_spot(tmp_path):
    envelope = json.loads((SAMPLE / "hex_to_tri.map").read_text())
    envelope["payload"]["vertex_map"][2] = [2]
    doc = tmp_path / "short.map"
    doc.write_text(json.dumps(envelope))
    assert run_cli(["induced", str(doc), "--dim", "1"]) == (
        1, "", f"error: {doc}.payload.vertex_map[2]: expected a [source, image] pair\n"
    )
    envelope = json.loads((SAMPLE / "dyadic.tower").read_text())
    envelope["payload"]["bonds"].append(envelope["payload"]["bonds"][-1])
    doc = tmp_path / "surplus.tower"
    doc.write_text(json.dumps(envelope))
    assert run_cli(["tower-report", str(doc), "--report", "steenrod", "--dim", "0"]) == (
        1, "", f"error: {doc}.payload: more bonds than adjacent level pairs\n"
    )


def test_gallery_report_without_a_dimension_exits_one():
    code, out, err = run_cli(["gallery", "warsaw", "--depth", "2", "--report", "cech"])
    assert (code, out, err) == (1, "", "error: --report needs --dim\n")


def test_failed_self_check_exits_three_with_one_line(monkeypatch):
    import towertop.simplicial as simplicial

    real = simplicial.smith_normal_form

    def off_by_one(matrix):
        s = real(matrix)
        d = IntegerMatrix([[x + 1 for x in r] for r in s.d.rows], ncols=s.d.ncols)
        return SmithDecomposition(s.matrix, s.u, s.uinv, d, s.v)

    monkeypatch.setattr(simplicial, "smith_normal_form", off_by_one)
    code, out, err = run_cli(["homology", path("torus.complex"), "--dim", "1"])
    assert code == 3 and out == ""
    assert err == (
        "internal self-check failed in homology: "
        "Smith decomposition identity U*M*V = D failed\n"
    )


def test_forged_residue_basis_exits_three_with_one_line(monkeypatch):
    import towertop.abelian as abelian

    real = abelian._bit_basis

    def short_one_row(rows):
        # the basis loses its highest-keyed row, so it no longer spans every residue
        basis = real(rows)
        if basis:
            del basis[max(basis)]
        return basis

    monkeypatch.setattr(abelian, "_bit_basis", short_one_row)
    # the warsaw circle's image chains keep mod-2 bases with rows, so the
    # forged basis misses one (the dyadic tower's bases mod 2 are empty)
    argv = ["gallery", "warsaw", "--depth", "4", "--report", "steenrod", "--dim", "0"]
    assert run_cli(argv) == (
        3,
        "",
        "internal self-check failed in gallery: "
        "a row lies outside the span of its residue basis\n",
    )


def test_failed_factor_product_check_exits_three(monkeypatch):
    import towertop.polynomial as polynomial

    real = polynomial._factor_square_free
    monkeypatch.setattr(polynomial, "_factor_square_free", lambda f: real(f)[1:])
    argv = ["gallery", "solenoid", "--p", "2", "--depth", "4", "--report", "steenrod", "--dim", "1"]
    assert run_cli(argv) == (
        3,
        "",
        "internal self-check failed in gallery: "
        "factors do not multiply back to the characteristic polynomial\n",
    )


def test_out_of_memory_exits_four_with_one_line(monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    # package-built matrices skip the public constructor: both ways fail
    monkeypatch.setattr(IntegerMatrix, "__init__", exhausted)
    monkeypatch.setattr(IntegerMatrix, "_derived", exhausted)
    code, out, err = run_cli(["homology", path("torus.complex"), "--dim", "1"])
    assert (code, out, err) == (4, "", "error: out of memory\n")


def test_fail_verdict_still_exits_zero(tmp_path):
    doc = tmp_path / "broken.tower"
    doc.write_text(serialize("complex_tower", fence_violation("C2", 6, 3)))
    code, out, err = run_cli(["validate", str(doc)])
    assert code == 0
    assert out.startswith("FAIL (C2)")
    assert "witness" in out


def test_help_exits_zero():
    assert run_cli(["--help"])[0] == 0


# -- report golden strings --------------------------------------------------


def test_torus_homology_report():
    code, out, err = run_cli(["homology", path("torus.complex"), "--dim", "1"])
    assert code == 0
    assert out == "H_1 = Z^2\n"


def test_comb_steenrod_report_headlines():
    code, out, err = run_cli(
        ["gallery", "comb", "--teeth", "6", "--depth", "3",
         "--report", "steenrod", "--dim", "0"]
    )
    assert code == 0
    assert "lim1: Uncountable (label: Prod(Z)/Sum(Z))" in out
    assert "H~_0(X): uncountable via lim1" in out


def test_fence_tower_validates_clean():
    code, out, err = run_cli(
        ["gallery", "fence", "--segments", "6", "--depth", "3"]
    )
    assert code == 0
    kind, tower = deserialize(out)
    assert kind == "complex_tower"
    text = serialize("complex_tower", tower)
    import tempfile, os

    fd, doc = tempfile.mkstemp(suffix=".tower")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        code, out, err = run_cli(["validate", doc, "--variant", "compactohedral"])
        assert code == 0
        assert out.splitlines()[0] == "PASS (C0..C3)"
    finally:
        os.unlink(doc)


def test_pinched_dyadic_tower_report():
    code, out, err = run_cli(["pinch", path("dyadic.tower"), "--depth", "2", "--dim", "1"])
    assert code == 0
    assert "H_1 = Z/4" in out


def test_induced_map_report():
    code, out, err = run_cli(["induced", path("hex_to_tri.map"), "--dim", "1"])
    assert code == 0
    assert out == "H_1: Z -> Z\nmatrix = [[1]]\n"


def test_nerve_and_lebesgue_reports():
    code, out, err = run_cli(
        ["nerve", "--sample", path("diamond.sample"),
         "--cover", path("three_arcs.cover"), "--dim", "1"]
    )
    assert code == 0
    assert "H_1 = Z" in out
    code, out, err = run_cli(
        ["lebesgue", "--sample", path("diamond.sample"),
         "--cover", path("three_arcs.cover")]
    )
    assert code == 0
    assert out == "lebesgue number = 0\n"


def test_petkova_report_on_sample_filtration():
    code, out, err = run_cli(
        ["tower-report", path("triangle_filtration.filtration"),
         "--report", "petkova", "--dim", "1"]
    )
    assert code == 0
    assert "H^1(X) = Z" in out
    assert "lim1: Zero" in out


def test_cech_report_on_dyadic_tower():
    code, out, err = run_cli(
        ["tower-report", path("dyadic.tower"), "--report", "cech", "--dim", "1"]
    )
    assert code == 0
    assert "Hc^1: not finitely stable" in out


# -- structured output and determinism ---------------------------------------


def test_structured_report_is_a_json_envelope():
    code, out, err = run_cli(
        ["homology", path("torus.complex"), "--dim", "1", "--format", "structured"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["format_version"] == "1"
    assert doc["kind"] == "report"
    assert doc["payload"]["group"] == {"free_rank": 2, "torsion": []}


def test_structured_validate_carries_witnesses(tmp_path):
    doc = tmp_path / "broken.tower"
    doc.write_text(serialize("complex_tower", fence_violation("C1", 6, 3)))
    code, out, err = run_cli(["validate", str(doc), "--format", "structured"])
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["verdict"] == "FAIL"
    assert payload["violations"][0]["axiom"] == "C1"
    assert payload["violations"][0]["witness"] == [["s", 1, 0]]


def test_identical_invocations_are_byte_identical():
    argv = ["gallery", "comb", "--teeth", "4", "--depth", "2",
            "--report", "steenrod", "--dim", "0", "--format", "structured"]
    first = run_cli(argv)
    second = run_cli(argv)
    assert first == second
    argv = ["gallery", "warsaw", "--depth", "2"]
    assert run_cli(argv) == run_cli(argv)


def test_gallery_emits_a_loadable_tower_envelope():
    code, out, err = run_cli(["gallery", "solenoid", "--p", "2", "--depth", "2"])
    assert code == 0
    kind, tower = deserialize(out)
    assert kind == "complex_tower"
    assert len(tower.levels) == 3
    assert tower.certificate is not None and tower.certificate.kind == "periodic"


# -- process boundary --------------------------------------------------------


def test_console_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "towertop.cli", "homology",
         path("torus.complex"), "--dim", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "H_1 = Z^2\n"


def test_certified_periodic_report_imports_no_sympy():
    # the dimension-1 solenoid tower never repeats its images, so its limit
    # goes through the unit part of a characteristic polynomial
    script = (
        "import sys\n"
        "from towertop.cli import main\n"
        "code = main(['gallery', 'solenoid', '--p', '2', '--depth', '4',\n"
        "             '--report', 'steenrod', '--dim', '1'])\n"
        "assert 'sympy' not in sys.modules, 'sympy was imported'\n"
        "sys.exit(code)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == (
        "steenrod report, dimension 1\n"
        "lim1: Zero\n"
        "lim = 0\n"
        "H_1(X) = 0\n"
        "note: left term: derived limit of the dimension-2 homology tower (Zero)\n"
        "note: dimension-2 tower: certified periodic (offset 0, period 1)\n"
        "note: right term: inverse limit of the dimension-1 homology tower\n"
        "note: dimension-1 tower: certified periodic (offset 0, period 1)\n"
    )


# A later module-level import would silently bring back start-up cost
# that these pin: every command pays for ``abelian`` and ``simplicial``
# only, plus what its own handler imports.
def _modules_after(script: str, *argv: str) -> set:
    """Every module a fresh interpreter has loaded once ``script`` has run."""
    script += "\nprint(' '.join(sys.modules))"
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def _towertop(modules: set) -> set:
    return {m[len("towertop."):] for m in modules if m.startswith("towertop.")}


# ``dataclasses`` imports ``inspect``, which pulls in ``ast``, ``dis`` and
# ``tokenize``; records build on ``abelian._Record`` so no command pays for them
_SLOW_STDLIB = {"dataclasses", "inspect"}


def test_importing_the_cli_loads_no_optional_module():
    loaded = _modules_after("import sys\nimport towertop.cli")
    assert _towertop(loaded) == {"abelian", "simplicial", "cli"}
    optional = {"tower", "compactohedral", "assembly", "nerve", "polynomial"}
    assert not loaded & ({f"towertop.{m}" for m in optional} | {"fractions"} | _SLOW_STDLIB)


_BASE = {"abelian", "simplicial", "cli"}
_TOWER = _BASE | {"tower"}


# argv on the sample documents -> the towertop modules the command loads
_LOADS = [
    (["homology", path("torus.complex"), "--dim", "1"], _BASE),
    (["cohomology", path("torus.complex"), "--dim", "1"], _BASE),
    (["induced", path("hex_to_tri.map"), "--dim", "1"], _BASE),
    (["telescope", path("dyadic.tower"), "--dim", "1"], _TOWER),
    (["pinch", path("dyadic.tower"), "--dim", "1"], _TOWER),
    (["tower-report", path("dyadic.tower"), "--report", "cech", "--dim", "0"],
     _TOWER | {"assembly"}),
    # the dyadic H_1 images never repeat, so the limit factors a polynomial
    (["tower-report", path("dyadic.tower"), "--report", "steenrod", "--dim", "1"],
     _TOWER | {"assembly", "polynomial"}),
    (["tower-report", path("triangle_filtration.filtration"), "--report", "petkova",
      "--dim", "1"], _TOWER | {"assembly", "compactohedral"}),
    (["validate", path("dyadic.tower")], _TOWER | {"compactohedral"}),
    (["nerve", "--sample", path("diamond.sample"), "--cover", path("six_arcs.cover")],
     _BASE | {"nerve"}),
    (["lebesgue", "--sample", path("diamond.sample"), "--cover", path("six_arcs.cover")],
     _BASE | {"nerve"}),
    (["gallery", "warsaw", "--depth", "2"], _TOWER | {"compactohedral"}),
    (["gallery", "warsaw", "--depth", "2", "--report", "cech", "--dim", "1"],
     _TOWER | {"compactohedral", "assembly"}),
    (["homology", "--help"], _BASE),
]


@pytest.mark.parametrize(
    "argv, modules", _LOADS, ids=[" ".join(pathlib.Path(a).name for a in argv) for argv, _ in _LOADS]
)
def test_each_subcommand_loads_only_its_modules(argv, modules):
    script = (
        "import contextlib, io, sys\n"
        "from towertop.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(sys.argv[1:]) == 0\n"
    )
    loaded = _modules_after(script, *argv)
    assert _towertop(loaded) == modules
    assert not loaded & _SLOW_STDLIB
