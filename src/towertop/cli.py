"""Command-line interface and document files.

Documents are JSON envelopes: {"format_version": "1", "kind": ...,
"payload": ...}.  Complexes are stored by their maximal simplexes and
closed under faces on load; vertex labels are integers, strings, or
arrays of labels nested at most 32 deep (decoded to tuples); rationals
travel as integers or "p/q" strings.  Serialization sorts keys and simplexes, so identical
inputs produce byte-identical files and reports.

Exit status: 0 for success, including Undetermined and FAIL verdicts;
1 for input problems (unreadable file, malformed document, a vertex
mapped twice, missing flag, a gallery flag the request does not read,
gallery sizes past their bound, a complex or nerve that may close to
more than ``simplicial.MAX_SIMPLEXES`` faces), with a message naming
the file and the violation or the flag; 2 for mathematical
precondition failures raised by the operations; 3 when one of the
package's own exactness self-checks fails; 4 when the process runs out
of memory.

``gallery`` reads its family names, and the width flag each family
needs, from the one table ``compactohedral.GALLERY``.

Every subcommand reads or builds complexes and groups, so ``abelian``
and ``simplicial`` load with this module; the other modules load in
the handlers and decoders that use them, so a command pays start-up
only for what it runs.  The records are slotted classes whose one
constructor, ``abelian._Record.__init__``, binds arguments to slots:
start-up imports neither ``dataclasses`` nor the ``inspect`` it pulls
in, and compiles no generated methods.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import TYPE_CHECKING, List, Optional

from .abelian import FGAbelianGroup, _Record
from .simplicial import (
    SimplicialComplex,
    SimplicialMap,
    TooManySimplexes,
    check_face_budget,
    cohomology,
    finite_telescope,
    homology,
    induced_map,
    label_key,
    pinched_telescope,
    simplex_key,
)

if TYPE_CHECKING:  # annotations only; each decoder imports what it builds
    from fractions import Fraction

    from .nerve import BallCover, PointSample
    from .tower import Certificate, ComplexTower

FORMAT_VERSION = "1"


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


def _checked(where: str, build, *args):
    """``build(*args)``, with a ValueError or TypeError reported at ``where``."""
    try:
        return build(*args)
    except (ValueError, TypeError) as e:
        _fail(where, str(e))


def _items(payload, key: str, where: str, decode) -> list:
    """Decode each entry of the array ``payload[key]`` at its indexed path."""
    entries = _as_list(_need(payload, key, where), where)
    return [decode(x, f"{where}.{key}[{i}]") for i, x in enumerate(entries)]


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
    from fractions import Fraction

    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    # only the documented forms: Fraction alone also reads exponents, and
    # "1e100000000" would build that power of ten
    if isinstance(x, str) and re.fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", x):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):  # q = 0, or more digits than int() reads
            pass
    _fail(where, f"expected an integer or 'p/q' string, got {x!r}")


def _decode_tuple(x, where: str, decode) -> tuple:
    return tuple(decode(v, where) for v in _as_list(x, where))


# -- document codecs -------------------------------------------------------


def _decode_complex(payload, where: str) -> SimplicialComplex:
    maximal = _items(
        payload, "maximal", where, lambda s, at: _decode_tuple(s, at, _decode_label)
    )
    extras = [
        _decode_label(v, f"{where}.extra_vertices")
        for v in _as_list(payload.get("extra_vertices", []), where)
    ]
    try:
        check_face_budget(maximal)
    except TooManySimplexes as e:
        _fail(f"{where}.maximal", f"these simplexes {e}")
    return _checked(where, SimplicialComplex.from_maximal, maximal, extras)


def _encode_complex(k: SimplicialComplex) -> dict:
    # a face-closed complex's maximal simplexes are those that are no
    # other simplex's facet
    facets = {t[:i] + t[i + 1 :] for t in k.simplexes for i in range(len(t))}
    return {
        "maximal": [
            [_encode_label(v) for v in s]
            for s in sorted(k.simplexes - facets, key=simplex_key)
        ]
    }


def _decode_vertex_map(pairs, where: str, source: SimplicialComplex) -> dict:
    known = set(source.vertices)
    out = {}
    for i, pair in enumerate(_as_list(pairs, where)):
        spot = f"{where}[{i}]"
        pair = _as_list(pair, spot)
        if len(pair) != 2:
            _fail(spot, "expected a [source, image] pair")
        v = _decode_label(pair[0], spot)
        if v in out:
            _fail(spot, f"vertex {v!r} is mapped twice")
        if v not in known:
            _fail(spot, f"vertex {v!r} is mapped but not in the source")
        out[v] = _decode_label(pair[1], spot)
    return out


def _encode_vertex_map(f: SimplicialMap) -> list:
    return [
        [_encode_label(v), _encode_label(f.vertex_map[v])]
        for v in sorted(f.vertex_map, key=label_key)
    ]


def _decode_map(payload, where: str) -> SimplicialMap:
    source = _decode_complex(_need(payload, "source", where), f"{where}.source")
    target = _decode_complex(_need(payload, "target", where), f"{where}.target")
    vm = _decode_vertex_map(_need(payload, "vertex_map", where), f"{where}.vertex_map", source)
    return _checked(where, SimplicialMap, source, target, vm)


def _decode_group(payload, where: str) -> FGAbelianGroup:
    free_rank = _as_int(_need(payload, "free_rank", where), where)
    torsion = [
        _as_int(t, f"{where}.torsion")
        for t in _as_list(payload.get("torsion", []), where)
    ]
    return _checked(where, FGAbelianGroup.from_invariants, free_rank, torsion)


def _encode_group(g: FGAbelianGroup) -> dict:
    return {"free_rank": g.free_rank, "torsion": list(g.torsion)}


def _decode_certificate(payload, where: str) -> Optional[Certificate]:
    from .tower import Certificate

    if payload is None:
        return None
    kind = _need(payload, "kind", where)
    core = payload.get("stable_core")
    display = payload.get("lim1_display")
    if display is not None and not isinstance(display, str):
        _fail(where, "lim1_display must be a string or null")
    return _checked(
        where,
        Certificate,
        kind,
        _as_int(payload.get("offset", 0), where),
        _as_int(payload.get("period", 1), where),
        None if core is None else _decode_group(core, f"{where}.stable_core"),
        display,
    )


def _decode_complex_tower(payload, where: str) -> ComplexTower:
    from .tower import ComplexTower

    levels = _items(payload, "levels", where, _decode_complex)
    bonds = []
    for i, pairs in enumerate(_as_list(_need(payload, "bonds", where), where)):
        spot = f"{where}.bonds[{i}]"
        if i + 1 >= len(levels):
            _fail(where, "more bonds than adjacent level pairs")
        vm = _decode_vertex_map(pairs, spot, levels[i + 1])
        bonds.append(_checked(spot, SimplicialMap, levels[i + 1], levels[i], vm))
    marks = {
        name: _items(payload, name, where, _decode_complex)
        for name in ("marked_K", "marked_L")
        if payload.get(name) is not None
    }
    cert = _decode_certificate(payload.get("certificate"), f"{where}.certificate")
    return _checked(
        where, ComplexTower, levels, bonds, marks.get("marked_K"), marks.get("marked_L"), cert
    )


def _encode_complex_tower(t: ComplexTower) -> dict:
    # a constant tower repeats one level object and a marking often is
    # the levels themselves: encode each distinct complex once, and let
    # json print the shared dict wherever the complex appears
    encoded = {}

    def encode(k: SimplicialComplex) -> dict:
        if id(k) not in encoded:
            encoded[id(k)] = _encode_complex(k)
        return encoded[id(k)]

    out = {
        "levels": [encode(k) for k in t.levels],
        "bonds": [_encode_vertex_map(b) for b in t.bonds],
    }
    for name in ("marked_K", "marked_L"):
        if getattr(t, name) is not None:
            out[name] = [encode(k) for k in getattr(t, name)]
    c = t.certificate
    if c is not None:
        out["certificate"] = {
            "kind": c.kind,
            "offset": c.offset,
            "period": c.period,
            "stable_core": None if c.stable_core is None else _encode_group(c.stable_core),
            "lim1_display": c.lim1_display,
        }
    return out


def _decode_point_sample(payload, where: str) -> PointSample:
    from .nerve import PointSample

    points = _items(
        payload, "points", where, lambda p, at: _decode_tuple(p, at, _decode_rational)
    )
    mark = [
        _as_int(i, f"{where}.compactum_mark")
        for i in _as_list(payload.get("compactum_mark", []), where)
    ]
    return _checked(where, PointSample, points, mark)


def _decode_ball(e, where: str) -> tuple:
    e = _as_list(e, where)
    if len(e) != 2:
        _fail(where, "expected a [center_index, radius] pair")
    return _as_int(e[0], where), _decode_rational(e[1], where)


def _decode_cover(payload, where: str) -> BallCover:
    from .nerve import BallCover

    return _checked(where, BallCover, _items(payload, "elements", where, _decode_ball))


# kind -> (decode(payload, where), encode(obj) -> payload)
_CODECS = {
    "complex": (_decode_complex, _encode_complex),
    "map": (
        _decode_map,
        lambda f: {
            "source": _encode_complex(f.source),
            "target": _encode_complex(f.target),
            "vertex_map": _encode_vertex_map(f),
        },
    ),
    "complex_tower": (_decode_complex_tower, _encode_complex_tower),
    "filtration": (
        lambda payload, where: _items(payload, "stages", where, _decode_complex),
        lambda stages: {"stages": [_encode_complex(k) for k in stages]},
    ),
    "point_sample": (
        _decode_point_sample,
        lambda s: {
            "points": [[str(c) for c in p] for p in s.points],
            "compactum_mark": sorted(s.compactum_mark),
        },
    ),
    "cover": (
        _decode_cover,
        lambda c: {"elements": [[center, str(radius)] for center, radius in c.elements]},
    ),
}
KINDS = tuple(_CODECS)


def _envelope(kind: str, payload) -> str:
    envelope = {"format_version": FORMAT_VERSION, "kind": kind, "payload": payload}
    return json.dumps(envelope, sort_keys=True, indent=2) + "\n"


def deserialize(text: str, where: str = "document"):
    """Parse an envelope; returns (kind, decoded object)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        _fail(where, f"line {e.lineno}: not valid JSON ({e.msg})")
    except ValueError as e:  # an integer past Python's digit limit
        _fail(where, f"not valid JSON ({e})")
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
        return kind, _CODECS[kind][0](payload, f"{where}.payload")
    except RecursionError:
        _fail(where, "vertex labels nested too deeply")


def serialize(kind: str, obj) -> str:
    """Deterministic envelope text for a document of the given kind."""
    if kind not in KINDS:
        raise InputProblem(f"unknown document kind {kind!r}")
    return _envelope(kind, _CODECS[kind][1](obj))


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


class Report(_Record):
    __slots__ = _fields = ("lines", "data")


def _emit(report: Report, fmt: str) -> str:
    if fmt == "structured":
        return _envelope("report", report.data)
    return "\n".join(report.lines) + "\n"


def _compact(value) -> str:
    return json.dumps(value, separators=(",", ":"))


def _group_report(lines: List[str], name: str, group, data: dict) -> Report:
    """A report ending in ``name = group``, with the group in its data."""
    display = group.describe()
    data.update(group=_encode_group(group), display=display)
    return Report(lines + [f"{name} = {display}"], data)


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


def _tower_report(kind: str, tower, n: int, window) -> Report:
    """The Steenrod or Čech report of a complex tower in dimension ``n``."""
    from .assembly import cech_cohomology_report, steenrod_report
    from .tower import ColimResult

    if kind == "steenrod":
        name = f"H~_{n}(X)" if n == 0 else f"H_{n}(X)"
        return _ses_report("steenrod", steenrod_report(tower, n, window), name)
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


def _homology_name(args) -> str:
    return f"H~_{args.dim}" if args.reduced else f"H_{args.dim}"


def _cmd_homology(args) -> Report:
    k = _load(args.file, "complex")
    group = homology(k, args.dim, reduced=args.reduced).group
    data = {"command": "homology", "dimension": args.dim, "reduced": args.reduced}
    return _group_report([], _homology_name(args), group, data)


def _cmd_cohomology(args) -> Report:
    group = cohomology(_load(args.file, "complex"), args.dim).group
    data = {"command": "cohomology", "dimension": args.dim}
    return _group_report([], f"H^{args.dim}", group, data)


def _cmd_induced(args) -> Report:
    f = _load(args.file, "map")
    hom = induced_map(f, args.dim, reduced=args.reduced)
    rows = [list(r) for r in hom.canonical_matrix().rows]
    return Report(
        [
            f"{_homology_name(args)}: {hom.source.describe()} -> {hom.target.describe()}",
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


def _cmd_telescope(args) -> Report:
    """``telescope`` and ``pinch``: homology of a tower's (pinched) finite telescope."""
    tower = _load(args.file, "complex_tower")
    depth = len(tower.levels) - 1 if args.depth is None else args.depth
    build, title = {
        "telescope": (finite_telescope, "telescope"),
        "pinch": (pinched_telescope, "pinched telescope"),
    }[args.command]
    group = homology(build(tower, depth).complex, args.dim).group
    data = {"command": args.command, "depth": depth, "dimension": args.dim}
    return _group_report([f"{title} through level {depth}"], f"H_{args.dim}", group, data)


def _cmd_tower_report(args) -> Report:
    if args.report == "petkova":
        from .assembly import petkova_report

        stages = _load(args.file, "filtration")
        report = petkova_report(stages, args.dim, args.window)
        return _ses_report("petkova", report, f"H^{args.dim}(X)")
    tower = _load(args.file, "complex_tower")
    return _tower_report(args.report, tower, args.dim, args.window)


def _cmd_validate(args) -> Report:
    from .compactohedral import validate

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


def _load_sample_and_cover(args):
    # the sample loads first, so its error wins when both files are bad
    return _load(args.sample, "point_sample"), _load(args.cover, "cover")


def _cmd_nerve(args) -> Report:
    from .nerve import nerve

    sample, cover = _load_sample_and_cover(args)
    try:
        k = nerve(cover, sample)
    except TooManySimplexes as e:
        raise InputProblem(f"{args.cover}.payload.elements: their nerve over {args.sample} {e}")
    group = homology(k, args.dim).group
    data = {
        "command": "nerve",
        "vertices": len(k.vertices),
        "simplexes": len(k.simplexes),
        "dimension": args.dim,
    }
    line = f"nerve has {len(k.vertices)} vertices and {len(k.simplexes)} simplexes"
    return _group_report([line], f"H_{args.dim}", group, data)


def _cmd_lebesgue(args) -> Report:
    from .nerve import lebesgue_number

    value = lebesgue_number(*_load_sample_and_cover(args))
    return Report(
        [f"lebesgue number = {value}"],
        {"command": "lebesgue", "lebesgue": str(value)},
    )


def _cmd_gallery(args):
    from .compactohedral import GALLERY, GalleryTooLarge, build_gallery

    wanted = GALLERY[args.family][1]  # the keywords the family reads
    for name in wanted:
        if getattr(args, name) is None:
            raise InputProblem(f"gallery {args.family} needs --{name}")
    widths = [row[0] for row in GALLERY.values() if row[0] is not None]
    unread = [f"--{n}" for n in widths if n not in wanted and getattr(args, n) is not None]
    if unread:
        raise InputProblem(f"gallery {args.family} does not read {', '.join(unread)}")
    if args.report is None and (args.dim is not None or args.window is not None):
        raise InputProblem("gallery reads --dim and --window only with --report")
    try:
        tower = build_gallery(args.family, **{name: getattr(args, name) for name in wanted})
    except GalleryTooLarge as e:
        raise InputProblem(f"gallery {args.family}: --{e}")
    if args.report is None:
        return serialize("complex_tower", tower)
    if args.dim is None:
        raise InputProblem("--report needs --dim")
    return _tower_report(args.report, tower, args.dim, args.window)


# -- argument parsing -------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    # (flags, options) specs added when this parser first parses, so a
    # command builds only its own arguments; ``options`` may be a function
    # returning them, called then
    pending = ()

    def error(self, message):
        raise InputProblem(message)

    def parse_known_args(self, args=None, namespace=None):
        for flags, options in self.pending:
            self.add_argument(*flags, **(options() if callable(options) else options))
        self.pending = ()
        return super().parse_known_args(args, namespace)


def _variant_options() -> dict:
    from .compactohedral import VARIANTS  # the one list of variant names

    return {"choices": VARIANTS, "default": "compactohedral"}


def _family_options() -> dict:
    from .compactohedral import GALLERY  # the one table of gallery families

    return {"choices": tuple(GALLERY)}


# (name, help, handler, argument specs); each spec is the positional and
# keyword arguments of one ``add_argument`` call, in help order
_FORMAT = (("--format",), {"choices": ("text", "structured"), "default": "text"})
_FILE = (("file",), {})
_DIM = (("--dim",), {"type": int, "required": True})
_REDUCED = (("--reduced",), {"action": "store_true"})
_DEPTH = (("--depth",), {"type": int})
_WINDOW = (("--window",), {"type": int})
_SAMPLE = (("--sample",), {"required": True})
_COVER = (("--cover",), {"required": True})
_COMMANDS = (
    ("homology", "homology of a complex document",
     _cmd_homology, (_FILE, _DIM, _REDUCED)),
    ("cohomology", "cohomology of a complex document",
     _cmd_cohomology, (_FILE, _DIM)),
    ("induced", "induced homology map of a map document",
     _cmd_induced, (_FILE, _DIM, _REDUCED)),
    ("telescope", "homology of a tower's finite telescope",
     _cmd_telescope, (_FILE, _DIM, _DEPTH)),
    ("pinch", "homology of a tower's pinched telescope",
     _cmd_telescope, (_FILE, _DIM, _DEPTH)),
    ("tower-report", "limit reports for a tower or filtration", _cmd_tower_report, (
        _FILE,
        (("--report",), {"choices": ("steenrod", "cech", "petkova"), "required": True}),
        _DIM,
        _WINDOW,
    )),
    ("validate", "check tower markings against an axiom family", _cmd_validate, (
        _FILE,
        (("--variant",), _variant_options),
    )),
    ("nerve", "nerve of a ball cover over a point sample",
     _cmd_nerve, (_SAMPLE, _COVER, (("--dim",), {"type": int, "default": 1}))),
    ("lebesgue", "exact Lebesgue number of a cover",
     _cmd_lebesgue, (_SAMPLE, _COVER)),
    ("gallery", "build a worked example tower", _cmd_gallery, (
        (("family",), _family_options),
        (("--teeth",), {"type": int}),
        (("--segments",), {"type": int}),
        (("--depth",), {"type": int}),
        (("--p",), {"type": int}),
        (("--report",), {"choices": ("steenrod", "cech")}),
        (("--dim",), {"type": int}),
        _WINDOW,
    )),
)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="towertop", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, handler, specs in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.pending = (*specs, _FORMAT)
        p.set_defaults(handler=handler)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        result = args.handler(args)
        text = result if isinstance(result, str) else _emit(result, args.format)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    except InputProblem as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except ValueError as e:
        print(f"error in {args.command}: {e}", file=sys.stderr)
        return 2
    except AssertionError as e:
        print(f"internal self-check failed in {args.command}: {e}", file=sys.stderr)
        return 3
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 4
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
