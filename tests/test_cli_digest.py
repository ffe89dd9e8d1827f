"""One digest pins the bytes of 173 CLI calls.

Each call runs ``main`` in-process and records (argv, exit code, stdout,
stderr).  The calls cover every sample document under each subcommand
that reads its kind, both output formats, the four gallery families,
every ``--help`` and malformed documents that fail at each constructor
and each indexed array the decoders check.  Error messages name the
file, so the sample and temporary directories are replaced by fixed
tokens before hashing.  Help text is argparse's, so the digest also pins
argparse's layout, at a 120-column width, where Python 3.10 to 3.13
print the same bytes.  At 80 columns 3.13's argparse wraps the top
``--help`` differently (it keeps the trailing ``...`` on the line of the
choices), so the digest would depend on the interpreter.

When the CLI's output changes on purpose, print ``_digest(...)`` and
replace ``DIGEST``; a change that should not touch output must leave it
alone.
"""

import contextlib
import hashlib
import io
import json
import pathlib

from towertop.cli import _COMMANDS, main

SAMPLE = pathlib.Path(__file__).resolve().parent.parent / "sample"

DIGEST = "aa5afd2fb74c78a1317d7f996d4cedb1cc7aef96e09d564f3947dd39482daa34"

TRI = {"maximal": [[0, 1], [0, 2], [1, 2]]}
TRI_TOWER = {"levels": [TRI, TRI], "bonds": [[[0, 0], [1, 1], [2, 2]]]}

# name -> (subcommand and flags, kind, payload); each fails at its own spot
MALFORMED = {
    "empty_simplex.complex": ("homology --dim 0", "complex", {"maximal": [[0], []]}),
    "maximal_entry.complex": ("homology --dim 0", "complex", {"maximal": [[0, 1], 5]}),
    "unmapped_vertex.map": (
        "induced --dim 0",
        "map",
        {"source": TRI, "target": TRI, "vertex_map": [[0, 0], [1, 1]]},
    ),
    "level_entry.tower": (
        "validate",
        "complex_tower",
        {"levels": [TRI, {"maximal": 1}], "bonds": []},
    ),
    "bond_not_simplicial.tower": (
        "validate",
        "complex_tower",
        {"levels": [{"maximal": [[0], [1], [2]]}, TRI], "bonds": [[[0, 0], [1, 1], [2, 2]]]},
    ),
    "marked_K_entry.tower": (
        "validate",
        "complex_tower",
        dict(TRI_TOWER, marked_K=[TRI, {"maximal": [[True]]}]),
    ),
    "marked_L_entry.tower": ("validate", "complex_tower", dict(TRI_TOWER, marked_L=[{}])),
    "marking_count.tower": ("validate", "complex_tower", dict(TRI_TOWER, marked_K=[TRI])),
    "certificate_kind.tower": (
        "validate",
        "complex_tower",
        dict(TRI_TOWER, certificate={"kind": "eventually"}),
    ),
    "stable_core_torsion.tower": (
        "validate",
        "complex_tower",
        dict(
            TRI_TOWER,
            certificate={"kind": "shift_family", "stable_core": {"free_rank": 0, "torsion": [2, 3]}},
        ),
    ),
    "stage_entry.filtration": (
        "tower-report --report petkova --dim 0",
        "filtration",
        {"stages": [TRI, {"maximal": [0]}]},
    ),
}
# read together by nerve and lebesgue: the sample loads first, so its
# error is the one shown
BAD_SAMPLES = {
    "point_entry.sample": {"points": [["1"], 0]},
    "ragged.sample": {"points": [["1"], ["1", "2"]]},
}
BAD_COVERS = {
    "element_entry.cover": {"elements": [[0, "1"], [0]]},
    "negative_radius.cover": {"elements": [[0, "-1"]]},
}

# every subcommand's --help, read from the parser's own table so that a
# new subcommand cannot escape the digest
COMMANDS = tuple(name for name, *_ in _COMMANDS)


def _envelope(kind, payload) -> str:
    return json.dumps({"format_version": "1", "kind": kind, "payload": payload})


def _calls(tmp):
    sample = lambda name: str(SAMPLE / name)  # noqa: E731
    fmts = (["--format", "text"], ["--format", "structured"])
    calls = []
    for fmt in fmts:
        for dim in ("0", "1", "2"):
            for name in ("torus.complex", "projective_plane.complex", "hollow_triangle.complex"):
                calls.append(["homology", sample(name), "--dim", dim, *fmt])
                calls.append(["homology", sample(name), "--dim", dim, "--reduced", *fmt])
                calls.append(["cohomology", sample(name), "--dim", dim, *fmt])
            calls.append(["induced", sample("hex_to_tri.map"), "--dim", dim, *fmt])
            calls.append(["induced", sample("hex_to_tri.map"), "--dim", dim, "--reduced", *fmt])
            tower = sample("dyadic.tower")
            calls.append(["telescope", tower, "--dim", dim, "--depth", "1", *fmt])
            calls.append(["pinch", tower, "--dim", dim, "--depth", "1", *fmt])
            for report in ("steenrod", "cech"):
                calls.append(["tower-report", tower, "--report", report, "--dim", dim, *fmt])
            filtration = sample("triangle_filtration.filtration")
            calls.append(["tower-report", filtration, "--report", "petkova", "--dim", dim, *fmt])
            for cover in ("three_arcs.cover", "six_arcs.cover"):
                calls.append(
                    ["nerve", "--sample", sample("diamond.sample"), "--cover", sample(cover), "--dim", dim, *fmt]
                )
        calls.append(["validate", sample("dyadic.tower"), *fmt])
        calls.append(["telescope", sample("dyadic.tower"), "--dim", "1", *fmt])
        calls.append(["pinch", sample("dyadic.tower"), "--dim", "1", *fmt])
        calls.append(["tower-report", sample("dyadic.tower"), "--report", "cech", "--dim", "0", "--window", "2", *fmt])
        for cover in ("three_arcs.cover", "six_arcs.cover"):
            calls.append(["lebesgue", "--sample", sample("diamond.sample"), "--cover", sample(cover), *fmt])
    galleries = (
        ["comb", "--teeth", "4", "--depth", "2"],
        ["fence", "--segments", "4", "--depth", "2"],
        ["solenoid", "--p", "2", "--depth", "2"],
        ["warsaw", "--depth", "2"],
    )
    for family in galleries:
        calls.append(["gallery", *family])
        for i, report in enumerate(("steenrod", "cech")):
            for dim in ("0", "1"):
                calls.append(["gallery", *family, "--report", report, "--dim", dim, *fmts[i]])
    # exit 2 from the library and exit 1 from the parser
    calls.append(["gallery", "comb", "--teeth", "2", "--depth", "2"])
    calls.append(["tower-report", sample("dyadic.tower"), "--report", "cech", "--dim", "0", "--window", "0"])
    calls.append(["homology", sample("torus.complex")])
    calls.append(["--help"])
    calls.extend([command, "--help"] for command in COMMANDS)
    for name, (command, kind, payload) in MALFORMED.items():
        (tmp / name).write_text(_envelope(kind, payload), encoding="utf-8")
        words = command.split()
        calls.append([words[0], str(tmp / name), *words[1:]])
    for documents, kind in ((BAD_SAMPLES, "point_sample"), (BAD_COVERS, "cover")):
        for name, payload in documents.items():
            (tmp / name).write_text(_envelope(kind, payload), encoding="utf-8")
    for command in ("nerve", "lebesgue"):
        for s, c in zip(BAD_SAMPLES, BAD_COVERS):
            calls.append([command, "--sample", str(tmp / s), "--cover", str(tmp / c)])
        for c in BAD_COVERS:
            calls.append([command, "--sample", sample("diamond.sample"), "--cover", str(tmp / c)])
    return calls


def _digest(tmp) -> tuple:
    def fixed(text: str) -> str:
        return text.replace(str(SAMPLE), "<sample>").replace(str(tmp), "<tmp>")

    h = hashlib.sha256()
    calls = _calls(tmp)
    for argv in calls:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        record = [[fixed(a) for a in argv], code, fixed(out.getvalue()), fixed(err.getvalue())]
        h.update(json.dumps(record).encode("utf-8"))
    return len(calls), h.hexdigest()


def test_cli_bytes_match_the_pinned_digest(tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "120")
    assert _digest(tmp_path) == (173, DIGEST)
