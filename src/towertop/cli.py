"""Command-line interface and document files.

Documents are JSON envelopes: {"format_version": "1", "kind": ...,
"payload": ...}.  Complexes are stored by their maximal simplexes and
closed under faces on load; vertex labels are integers, strings, or
arrays of labels nested at most 32 deep (decoded to tuples); rationals
travel as integers or "p/q" strings.  Serialization sorts keys and simplexes, so identical
inputs produce byte-identical files and reports.

Exit status: 0 for success, including Undetermined and FAIL verdicts;
1 for input problems (unreadable file, malformed document, missing
flag), with a message naming the file and the violation; 2 for
mathematical precondition failures raised by the operations.
"""

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional

from .abelian import FGAbelianGroup
from .assembly import cech_cohomology_report, petkova_report, steenrod_report
from .compactohedral import VARIANTS, build_gallery, validate
from .nerve import BallCover, PointSample, lebesgue_number, nerve
from .simplicial import (
    SimplicialComplex,
    SimplicialMap,
    cohomology,
    finite_telescope,
    homology,
    induced_map,
    label_key,
    pinched_telescope,
)
from .tower import Certificate, ColimResult, ComplexTower

FORMAT_VERSION = "1"
KINDS = (
    "complex",
    "map",
    "complex_tower",
    "filtration",
    "point_sample",
    "cover",
)


class InputProblem(Exception):
    """Bad file or bad arguments; the process exits with status 1."""


def _fail(where: str, message: str):
    raise InputProblem(f"{where}: {message}")


def _need(obj, key: str, where: str):
    if not isinstance(obj, dict):
        _fail(where, "expected an object")
    if key not in obj:
        _fail(where, f"missing field {key!r}")
    return obj[key]


def _as_list(x, where: str) -> list:
    if not isinstance(x, list):
        _fail(where, "expected an array")
    return x


def _as_int(x, where: str) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        _fail(where, f"expected an integer, got {x!r}")
    return x


# -- label and scalar codecs ----------------------------------------------


# Deepest array nesting accepted in a vertex label.  The package's own
# labels nest one deep; every label comparison walks the whole nesting,
# so labels hundreds deep would make every command slow.
MAX_LABEL_DEPTH = 32


def _decode_label(x, where: str, depth: int = 0):
    if isinstance(x, bool):
        _fail(where, "boolean vertex labels are not supported")
    if isinstance(x, (int, str)):
        return x
    if isinstance(x, list):
        if depth == MAX_LABEL_DEPTH:
            raise RecursionError  # reported like a label too deep to decode
        return tuple(_decode_label(v, where, depth + 1) for v in x)
    _fail(where, f"unsupported vertex label {x!r}")


def _encode_label(v):
    if isinstance(v, tuple):
        return [_encode_label(x) for x in v]
    return v


def _decode_rational(x, where: str) -> Fraction:
    if isinstance(x, bool):
        _fail(where, "expected a rational")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            _fail(where, f"not a rational: {x!r}")
    _fail(where, f"expected an integer or 'p/q' string, got {x!r}")


def _simplex_sort_key(s):
    return (len(s), tuple(label_key(v) for v in s))


# -- document codecs -------------------------------------------------------


def _decode_complex(payload, where: str) -> SimplicialComplex:
    maximal = []
    for i, s in enumerate(_as_list(_need(payload, "maximal", where), where)):
        spot = f"{where}.maximal[{i}]"
        maximal.append(tuple(_decode_label(v, spot) for v in _as_list(s, spot)))
    extras = [
        _decode_label(v, f"{where}.extra_vertices")
        for v in _as_list(payload.get("extra_vertices", []), where)
    ]
    try:
        return SimplicialComplex.from_maximal(maximal, extra_vertices=extras)
    except (ValueError, TypeError) as e:
        _fail(where, str(e))


def _encode_complex(k: SimplicialComplex) -> dict:
    tops = [
        s
        for s in k.simplexes
        if not any(set(s) < set(t) for t in k.simplexes)
    ]
    return {
        "maximal": [
            [_encode_label(v) for v in s] for s in sorted(tops, key=_simplex_sort_key)
        ]
    }


def _decode_vertex_map(pairs, where: str) -> dict:
    out = {}
    for i, pair in enumerate(_as_list(pairs, where)):
        spot = f"{where}[{i}]"
        pair = _as_list(pair, spot)
        if len(pair) != 2:
            _fail(spot, "expected a [source, image] pair")
        out[_decode_label(pair[0], spot)] = _decode_label(pair[1], spot)
    return out


def _encode_vertex_map(f: SimplicialMap) -> list:
    return [
        [_encode_label(v), _encode_label(f.vertex_map[v])]
        for v in sorted(f.vertex_map, key=label_key)
    ]


def _decode_map(payload, where: str) -> SimplicialMap:
    source = _decode_complex(_need(payload, "source", where), f"{where}.source")
    target = _decode_complex(_need(payload, "target", where), f"{where}.target")
    vm = _decode_vertex_map(_need(payload, "vertex_map", where), f"{where}.vertex_map")
    try:
        return SimplicialMap(source, target, vm)
    except (ValueError, TypeError) as e:
        _fail(where, str(e))


def _encode_map(f: SimplicialMap) -> dict:
    return {
        "source": _encode_complex(f.source),
        "target": _encode_complex(f.target),
        "vertex_map": _encode_vertex_map(f),
    }


def _decode_group(payload, where: str) -> FGAbelianGroup:
    free_rank = _as_int(_need(payload, "free_rank", where), where)
    torsion = [
        _as_int(t, f"{where}.torsion")
        for t in _as_list(payload.get("torsion", []), where)
    ]
    try:
        return FGAbelianGroup.from_invariants(free_rank, torsion)
    except ValueError as e:
        _fail(where, str(e))


def _encode_group(g: FGAbelianGroup) -> dict:
    return {"free_rank": g.free_rank, "torsion": list(g.torsion)}


def _decode_certificate(payload, where: str) -> Optional[Certificate]:
    if payload is None:
        return None
    kind = _need(payload, "kind", where)
    core = payload.get("stable_core")
    try:
        return Certificate(
            kind,
            _as_int(payload.get("offset", 0), where),
            _as_int(payload.get("period", 1), where),
            None if core is None else _decode_group(core, f"{where}.stable_core"),
            payload.get("lim1_display"),
        )
    except ValueError as e:
        _fail(where, str(e))


def _encode_certificate(c: Optional[Certificate]):
    if c is None:
        return None
    return {
        "kind": c.kind,
        "offset": c.offset,
        "period": c.period,
        "stable_core": None if c.stable_core is None else _encode_group(c.stable_core),
        "lim1_display": c.lim1_display,
    }


def _decode_complex_tower(payload, where: str) -> ComplexTower:
    levels = [
        _decode_complex(p, f"{where}.levels[{i}]")
        for i, p in enumerate(_as_list(_need(payload, "levels", where), where))
    ]
    bonds = []
    for i, pairs in enumerate(_as_list(_need(payload, "bonds", where), where)):
        spot = f"{where}.bonds[{i}]"
        if i + 1 >= len(levels):
            _fail(where, "more bonds than adjacent level pairs")
        vm = _decode_vertex_map(pairs, spot)
        try:
            bonds.append(SimplicialMap(levels[i + 1], levels[i], vm))
        except (ValueError, TypeError) as e:
            _fail(spot, str(e))
    marks = {}
    for name in ("marked_K", "marked_L"):
        if payload.get(name) is not None:
            marks[name] = [
                _decode_complex(p, f"{where}.{name}[{i}]")
                for i, p in enumerate(_as_list(payload[name], where))
            ]
    cert = _decode_certificate(payload.get("certificate"), f"{where}.certificate")
    try:
        return ComplexTower(
            levels, bonds, marks.get("marked_K"), marks.get("marked_L"), cert
        )
    except ValueError as e:
        _fail(where, str(e))


def _encode_complex_tower(t: ComplexTower) -> dict:
    out = {
        "levels": [_encode_complex(k) for k in t.levels],
        "bonds": [_encode_vertex_map(b) for b in t.bonds],
    }
    if t.marked_K is not None:
        out["marked_K"] = [_encode_complex(k) for k in t.marked_K]
    if t.marked_L is not None:
        out["marked_L"] = [_encode_complex(k) for k in t.marked_L]
    if t.certificate is not None:
        out["certificate"] = _encode_certificate(t.certificate)
    return out


def _decode_filtration(payload, where: str) -> list:
    stages = _as_list(_need(payload, "stages", where), where)
    return [
        _decode_complex(p, f"{where}.stages[{i}]") for i, p in enumerate(stages)
    ]


def _encode_filtration(stages) -> dict:
    return {"stages": [_encode_complex(k) for k in stages]}


def _decode_point_sample(payload, where: str) -> PointSample:
    points = []
    for i, p in enumerate(_as_list(_need(payload, "points", where), where)):
        spot = f"{where}.points[{i}]"
        points.append(tuple(_decode_rational(c, spot) for c in _as_list(p, spot)))
    mark = [
        _as_int(i, f"{where}.compactum_mark")
        for i in _as_list(payload.get("compactum_mark", []), where)
    ]
    try:
        return PointSample(points, mark)
    except ValueError as e:
        _fail(where, str(e))


def _encode_point_sample(s: PointSample) -> dict:
    return {
        "points": [[str(c) for c in p] for p in s.points],
        "compactum_mark": sorted(s.compactum_mark),
    }


def _decode_cover(payload, where: str) -> BallCover:
    elements = []
    for i, e in enumerate(_as_list(_need(payload, "elements", where), where)):
        spot = f"{where}.elements[{i}]"
        e = _as_list(e, spot)
        if len(e) != 2:
            _fail(spot, "expected a [center_index, radius] pair")
        elements.append((_as_int(e[0], spot), _decode_rational(e[1], spot)))
    try:
        return BallCover(elements)
    except ValueError as e:
        _fail(where, str(e))


def _encode_cover(c: BallCover) -> dict:
    return {"elements": [[center, str(radius)] for center, radius in c.elements]}


_DECODERS = {
    "complex": _decode_complex,
    "map": _decode_map,
    "complex_tower": _decode_complex_tower,
    "filtration": _decode_filtration,
    "point_sample": _decode_point_sample,
    "cover": _decode_cover,
}

_ENCODERS = {
    "complex": _encode_complex,
    "map": _encode_map,
    "complex_tower": _encode_complex_tower,
    "filtration": _encode_filtration,
    "point_sample": _encode_point_sample,
    "cover": _encode_cover,
}


def deserialize(text: str, where: str = "document"):
    """Parse an envelope; returns (kind, decoded object)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        _fail(where, f"line {e.lineno}: not valid JSON ({e.msg})")
    except RecursionError:
        _fail(where, "arrays or objects nested too deeply")
    version = _need(doc, "format_version", where)
    if version != FORMAT_VERSION:
        _fail(where, f"unknown format_version {version!r}")
    kind = _need(doc, "kind", where)
    if kind not in KINDS:
        _fail(where, f"unknown document kind {kind!r}")
    payload = _need(doc, "payload", where)
    try:
        return kind, _DECODERS[kind](payload, f"{where}.payload")
    except RecursionError:
        _fail(where, "vertex labels nested too deeply")


def serialize(kind: str, obj) -> str:
    """Deterministic envelope text for a document of the given kind."""
    if kind not in KINDS:
        raise InputProblem(f"unknown document kind {kind!r}")
    envelope = {
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "payload": _ENCODERS[kind](obj),
    }
    return json.dumps(envelope, sort_keys=True, indent=2) + "\n"


def _load(path: str, expected_kind: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise InputProblem(f"{path}: {e.strerror or e}")
    kind, obj = deserialize(text, where=path)
    if kind != expected_kind:
        raise InputProblem(
            f"{path}: expected a {expected_kind} document, found {kind}"
        )
    return obj


# -- reports ---------------------------------------------------------------


@dataclass
class Report:
    lines: List[str]
    data: dict


def _emit(report: Report, fmt: str) -> str:
    if fmt == "structured":
        envelope = {
            "format_version": FORMAT_VERSION,
            "kind": "report",
            "payload": report.data,
        }
        return json.dumps(envelope, sort_keys=True, indent=2) + "\n"
    return "\n".join(report.lines) + "\n"


def _compact(value) -> str:
    return json.dumps(value, separators=(",", ":"))


def _ses_report(header: str, report, middle_name: str) -> Report:
    lines = [f"{header} report, dimension {report.dimension}"]
    left = report.left
    lim1_line = f"lim1: {left.verdict}"
    if left.display:
        lim1_line += f" (label: {left.display})"
    lines.append(lim1_line)
    if isinstance(report.right, FGAbelianGroup):
        lines.append(f"lim = {report.right.describe()}")
        right_data = _encode_group(report.right)
    else:
        lines.append(f"lim: undetermined ({report.right.reason})")
        right_data = {"undetermined": report.right.reason}
    if isinstance(report.middle, FGAbelianGroup):
        lines.append(f"{middle_name} = {report.middle.describe()}")
        middle_data = _encode_group(report.middle)
    elif report.middle == "UncountableViaLeft":
        lines.append(f"{middle_name}: uncountable via lim1")
        middle_data = report.middle
    else:
        lines.append(f"{middle_name}: unresolved extension")
        middle_data = report.middle
    lines.extend(f"note: {n}" for n in report.provenance)
    return Report(
        lines,
        {
            "report": header,
            "dimension": report.dimension,
            "left": {
                "verdict": left.verdict,
                "reason": left.reason,
                "display": left.display,
            },
            "right": right_data,
            "middle": middle_data,
            "provenance": list(report.provenance),
        },
    )


def _steenrod_report_for(tower, n: int, window) -> Report:
    report = steenrod_report(tower, n, window)
    name = f"H~_{n}(X)" if n == 0 else f"H_{n}(X)"
    return _ses_report("steenrod", report, name)


def _cech_report_for(tower, n: int, window) -> Report:
    report = cech_cohomology_report(tower, n, window)
    lines = [f"cech report, dimension {n}"]
    if isinstance(report.result, ColimResult):
        lines.append(
            f"Hc^{n} = {report.result.group.describe()}"
            f" (stable from level {report.result.index})"
        )
        result_data = {
            "group": _encode_group(report.result.group),
            "index": report.result.index,
            "note": report.result.note,
        }
    else:
        lines.append(f"Hc^{n}: not finitely stable ({report.result.reason})")
        result_data = {
            "not_finitely_stable": report.result.reason,
            "certified": report.result.certified,
        }
    lines.extend(f"note: {n_}" for n_ in report.provenance)
    return Report(
        lines,
        {
            "report": "cech",
            "dimension": n,
            "result": result_data,
            "provenance": list(report.provenance),
        },
    )


# -- subcommands -----------------------------------------------------------


def _cmd_homology(args) -> Report:
    k = _load(args.file, "complex")
    res = homology(k, args.dim, reduced=args.reduced)
    name = f"H~_{args.dim}" if args.reduced else f"H_{args.dim}"
    display = res.group.describe()
    return Report(
        [f"{name} = {display}"],
        {
            "command": "homology",
            "dimension": args.dim,
            "reduced": args.reduced,
            "group": _encode_group(res.group),
            "display": display,
        },
    )


def _cmd_cohomology(args) -> Report:
    k = _load(args.file, "complex")
    res = cohomology(k, args.dim)
    display = res.group.describe()
    return Report(
        [f"H^{args.dim} = {display}"],
        {
            "command": "cohomology",
            "dimension": args.dim,
            "group": _encode_group(res.group),
            "display": display,
        },
    )


def _cmd_induced(args) -> Report:
    f = _load(args.file, "map")
    hom = induced_map(f, args.dim, reduced=args.reduced)
    rows = [list(r) for r in hom.canonical_matrix().rows]
    name = f"H~_{args.dim}" if args.reduced else f"H_{args.dim}"
    return Report(
        [
            f"{name}: {hom.source.describe()} -> {hom.target.describe()}",
            f"matrix = {_compact(rows)}",
        ],
        {
            "command": "induced",
            "dimension": args.dim,
            "reduced": args.reduced,
            "source": _encode_group(hom.source),
            "target": _encode_group(hom.target),
            "matrix": rows,
        },
    )


def _telescope_depth(args, tower) -> int:
    return len(tower.levels) - 1 if args.depth is None else args.depth


def _cmd_telescope(args) -> Report:
    tower = _load(args.file, "complex_tower")
    depth = _telescope_depth(args, tower)
    tele = finite_telescope(tower, depth)
    res = homology(tele.complex, args.dim)
    display = res.group.describe()
    return Report(
        [f"telescope through level {depth}", f"H_{args.dim} = {display}"],
        {
            "command": "telescope",
            "depth": depth,
            "dimension": args.dim,
            "group": _encode_group(res.group),
            "display": display,
        },
    )


def _cmd_pinch(args) -> Report:
    tower = _load(args.file, "complex_tower")
    depth = _telescope_depth(args, tower)
    pinched = pinched_telescope(tower, depth)
    res = homology(pinched.complex, args.dim)
    display = res.group.describe()
    return Report(
        [f"pinched telescope through level {depth}", f"H_{args.dim} = {display}"],
        {
            "command": "pinch",
            "depth": depth,
            "dimension": args.dim,
            "group": _encode_group(res.group),
            "display": display,
        },
    )


def _cmd_tower_report(args) -> Report:
    if args.report == "petkova":
        stages = _load(args.file, "filtration")
        report = petkova_report(stages, args.dim, args.window)
        return _ses_report("petkova", report, f"H^{args.dim}(X)")
    tower = _load(args.file, "complex_tower")
    if args.report == "steenrod":
        return _steenrod_report_for(tower, args.dim, args.window)
    return _cech_report_for(tower, args.dim, args.window)


def _cmd_validate(args) -> Report:
    tower = _load(args.file, "complex_tower")
    report = validate(tower, args.variant)
    lines = [report.headline()]
    violations = []
    for v in report.violations:
        witness = _compact([_encode_label(x) for x in v.witness])
        lines.append(f"{v.axiom} at level {v.level}: witness {witness} ({v.detail})")
        violations.append(
            {
                "axiom": v.axiom,
                "level": v.level,
                "witness": [_encode_label(x) for x in v.witness],
                "detail": v.detail,
            }
        )
    return Report(
        lines,
        {
            "command": "validate",
            "variant": args.variant,
            "verdict": report.verdict,
            "violations": violations,
        },
    )


def _cmd_nerve(args) -> Report:
    sample = _load(args.sample, "point_sample")
    cover = _load(args.cover, "cover")
    k = nerve(cover, sample)
    res = homology(k, args.dim)
    display = res.group.describe()
    return Report(
        [
            f"nerve has {len(k.vertices)} vertices and {len(k.simplexes)} simplexes",
            f"H_{args.dim} = {display}",
        ],
        {
            "command": "nerve",
            "vertices": len(k.vertices),
            "simplexes": len(k.simplexes),
            "dimension": args.dim,
            "group": _encode_group(res.group),
            "display": display,
        },
    )


def _cmd_lebesgue(args) -> Report:
    sample = _load(args.sample, "point_sample")
    cover = _load(args.cover, "cover")
    value = lebesgue_number(sample, cover)
    return Report(
        [f"lebesgue number = {value}"],
        {"command": "lebesgue", "lebesgue": str(value)},
    )


_FAMILY_PARAMS = {
    "comb": ("teeth", "depth"),
    "fence": ("segments", "depth"),
    "solenoid": ("p", "depth"),
    "warsaw": ("depth",),
}


def _cmd_gallery(args):
    params = {}
    for name in _FAMILY_PARAMS[args.family]:
        value = getattr(args, name)
        if value is None:
            raise InputProblem(f"gallery {args.family} needs --{name}")
        params[name] = value
    tower = build_gallery(args.family, **params)
    if args.report is None:
        return serialize("complex_tower", tower)
    if args.dim is None:
        raise InputProblem("--report needs --dim")
    if args.report == "steenrod":
        return _steenrod_report_for(tower, args.dim, args.window)
    return _cech_report_for(tower, args.dim, args.window)


# -- argument parsing -------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InputProblem(message)


def _add_format(p):
    p.add_argument("--format", choices=("text", "structured"), default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="towertop", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("homology", help="homology of a complex document")
    p.add_argument("file")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--reduced", action="store_true")
    _add_format(p)
    p.set_defaults(handler=_cmd_homology)

    p = sub.add_parser("cohomology", help="cohomology of a complex document")
    p.add_argument("file")
    p.add_argument("--dim", type=int, required=True)
    _add_format(p)
    p.set_defaults(handler=_cmd_cohomology)

    p = sub.add_parser("induced", help="induced homology map of a map document")
    p.add_argument("file")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--reduced", action="store_true")
    _add_format(p)
    p.set_defaults(handler=_cmd_induced)

    p = sub.add_parser("telescope", help="homology of a tower's finite telescope")
    p.add_argument("file")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--depth", type=int)
    _add_format(p)
    p.set_defaults(handler=_cmd_telescope)

    p = sub.add_parser("pinch", help="homology of a tower's pinched telescope")
    p.add_argument("file")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--depth", type=int)
    _add_format(p)
    p.set_defaults(handler=_cmd_pinch)

    p = sub.add_parser("tower-report", help="limit reports for a tower or filtration")
    p.add_argument("file")
    p.add_argument("--report", choices=("steenrod", "cech", "petkova"), required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--window", type=int)
    _add_format(p)
    p.set_defaults(handler=_cmd_tower_report)

    p = sub.add_parser("validate", help="check tower markings against an axiom family")
    p.add_argument("file")
    p.add_argument("--variant", choices=VARIANTS, default="compactohedral")
    _add_format(p)
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("nerve", help="nerve of a ball cover over a point sample")
    p.add_argument("--sample", required=True)
    p.add_argument("--cover", required=True)
    p.add_argument("--dim", type=int, default=1)
    _add_format(p)
    p.set_defaults(handler=_cmd_nerve)

    p = sub.add_parser("lebesgue", help="exact Lebesgue number of a cover")
    p.add_argument("--sample", required=True)
    p.add_argument("--cover", required=True)
    _add_format(p)
    p.set_defaults(handler=_cmd_lebesgue)

    p = sub.add_parser("gallery", help="build a worked example tower")
    p.add_argument("family", choices=tuple(_FAMILY_PARAMS))
    p.add_argument("--teeth", type=int)
    p.add_argument("--segments", type=int)
    p.add_argument("--depth", type=int)
    p.add_argument("--p", type=int)
    p.add_argument("--report", choices=("steenrod", "cech"))
    p.add_argument("--dim", type=int)
    p.add_argument("--window", type=int)
    _add_format(p)
    p.set_defaults(handler=_cmd_gallery)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except InputProblem as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    try:
        result = args.handler(args)
    except InputProblem as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except ValueError as e:
        print(f"error in {args.command}: {e}", file=sys.stderr)
        return 2
    except AssertionError as e:
        print(f"internal self-check failed in {args.command}: {e}", file=sys.stderr)
        return 3
    if isinstance(result, str):
        sys.stdout.write(result)
    else:
        sys.stdout.write(_emit(result, args.format))
    return 0


if __name__ == "__main__":
    sys.exit(main())
