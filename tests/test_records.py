"""The package's small records: construction, equality, hashing, repr, freezing."""

import ast
import copy
import importlib
import pathlib
import pickle
import pkgutil
import re
import sys

import pytest

import towertop
from towertop.abelian import (
    FGAbelianGroup,
    GroupHom,
    HermiteForm,
    IntegerMatrix,
    SmithDecomposition,
    _Record,
    hermite_normal_form,
    smith_normal_form,
)
from towertop.assembly import CechReport, SESReport
from towertop.cli import Report
from towertop.compactohedral import ValidationReport, Violation, build_gallery, validate
from towertop.nerve import BallCover, PointSample
from towertop.simplicial import (
    ChainReduction,
    ComplexViolation,
    HomologyResult,
    SimplicialComplex,
    SimplicialMap,
    Telescope,
    _reduction,
    finite_telescope,
    homology,
)
from towertop.tower import (
    Certificate,
    ColimResult,
    GroupTower,
    Lim1Class,
    NotFinitelyStable,
    NotStable,
    ml_status,
    stable_lim,
)

Z = FGAbelianGroup.free(1)
ZR = "<FGAbelianGroup Z on 1 generators>"
CIRCLE = SimplicialComplex.from_maximal([(1, 2), (2, 3), (1, 3)])
EDGE = SimplicialComplex.from_maximal([("a", "b")])
TELESCOPE = finite_telescope(build_gallery("solenoid", p=2, depth=2), 1)


def _doubling():
    double = GroupHom(Z, Z, IntegerMatrix([[2]]))
    return GroupTower([Z] * 3, [double] * 2)


# class -> (a factory of equal records, their repr, frozen, hashable);
# hashable is None for a frozen record whose hash reaches an unhashable field
RECORDS = {
    "SmithDecomposition": (
        lambda: smith_normal_form(IntegerMatrix([[2, 4], [6, 8]])),
        "SmithDecomposition(matrix=IntegerMatrix([[2, 4], [6, 8]], ncols=2),"
        " u=IntegerMatrix([[1, 0], [3, -1]], ncols=2),"
        " uinv=IntegerMatrix([[1, 0], [3, -1]], ncols=2),"
        " d=IntegerMatrix([[2, 0], [0, 4]], ncols=2),"
        " v=IntegerMatrix([[1, -2], [0, 1]], ncols=2))",
        True,
        True,
    ),
    "HermiteForm": (
        lambda: hermite_normal_form(IntegerMatrix([[2, 4], [3, 6]])),
        "HermiteForm(matrix=IntegerMatrix([[2, 4], [3, 6]], ncols=2),"
        " form=IntegerMatrix([[1, 2]], ncols=2),"
        " pivots=(0,),"
        " transform=IntegerMatrix([[-1, 1]], ncols=2))",
        True,
        True,
    ),
    "ComplexViolation": (
        lambda: ComplexViolation("missing face", (1, 2)),
        "ComplexViolation(kind='missing face', simplex=(1, 2))",
        True,
        True,
    ),
    "ChainReduction": (
        lambda: _reduction(EDGE, "homology", 0, False),
        "ChainReduction(incoming=(((0, -1), (1, 1)),), outgoing=((), ()),"
        " homotopy=(((0, 1, ((0, -1), (1, 1)), ((0, 1),)),), ()), residual=((), ((),)),"
        " iota=(((0, 1),),), pi=(((0, 1),), ((0, 1),)))",
        True,
        True,
    ),
    "HomologyResult": (
        lambda: HomologyResult(Z, (), 1, (), (), (), (((0, 1),),), 0),
        f"HomologyResult(group={ZR}, representatives=(), degree=1, basis=(), cycle_columns=())",
        True,
        True,
    ),
    "Telescope": (
        lambda: Telescope(TELESCOPE.complex, TELESCOPE.level_embeddings),
        "Telescope(complex=<SimplicialComplex: 9 vertices, dim 2>,"
        " level_embeddings=(<SimplicialMap on 3 vertices>, <SimplicialMap on 6 vertices>))",
        True,
        True,
    ),
    "Report": (
        lambda: Report(["a"], {"k": 1}),
        "Report(lines=['a'], data={'k': 1})",
        True,
        None,
    ),
    "Certificate": (
        lambda: Certificate("shift_family", 1, 2, Z, "Q/Z"),
        f"Certificate(kind='shift_family', offset=1, period=2, stable_core={ZR},"
        " lim1_display='Q/Z')",
        True,
        True,
    ),
    "MLStatus": (
        lambda: ml_status(_doubling(), 0),
        f"MLStatus(verdict='UndeterminedWithinWindow', index=None, image_chain=[{ZR}, {ZR}, {ZR}],"
        " reason='no repeated image within the window and no certificate to extend it')",
        True,
        None,
    ),
    "NotStable": (
        lambda: stable_lim(_doubling()),
        "NotStable(reason='image chain at level 0 does not repeat within the window',"
        " image_chains=(((1, ()), (1, ()), (1, ())),))",
        True,
        True,
    ),
    "Lim1Class": (
        lambda: Lim1Class("Zero", "r"),
        "Lim1Class(verdict='Zero', reason='r', display=None)",
        True,
        True,
    ),
    "NotFinitelyStable": (
        lambda: NotFinitelyStable("r", ((1, ()),)),
        "NotFinitelyStable(reason='r', level_invariants=((1, ()),), certified=False)",
        True,
        True,
    ),
    "ColimResult": (
        lambda: ColimResult(Z, 0),
        f"ColimResult(group={ZR}, index=0, note='')",
        True,
        True,
    ),
    "SESReport": (
        lambda: SESReport(1, Lim1Class("Zero", "r"), Z, "UnresolvedExtension", ("n",)),
        f"SESReport(dimension=1, left=Lim1Class(verdict='Zero', reason='r', display=None),"
        f" right={ZR}, middle='UnresolvedExtension', provenance=('n',))",
        True,
        True,
    ),
    "CechReport": (
        lambda: CechReport(0, ColimResult(Z, 0, "x"), ("n",)),
        f"CechReport(dimension=0, result=ColimResult(group={ZR}, index=0, note='x'),"
        " provenance=('n',))",
        True,
        True,
    ),
    "Violation": (
        lambda: Violation("C1", 1, (1,), "d"),
        "Violation(axiom='C1', level=1, witness=(1,), detail='d')",
        True,
        True,
    ),
    "ValidationReport": (
        lambda: validate(build_gallery("warsaw", depth=2)),
        "ValidationReport(variant='compactohedral', verdict='PASS',"
        " axioms=('C0', 'C1', 'C2', 'C3'), violations=())",
        True,
        True,
    ),
    "PointSample": (
        lambda: PointSample([(0, "1/2"), (1, 2)], [0]),
        "PointSample(points=((Fraction(0, 1), Fraction(1, 2)), (Fraction(1, 1), Fraction(2, 1))),"
        " compactum_mark=frozenset({0}))",
        True,
        True,
    ),
    "BallCover": (
        lambda: BallCover([(0, 1), (1, "3/2")]),
        "BallCover(elements=((0, Fraction(1, 1)), (1, Fraction(3, 2))))",
        True,
        True,
    ),
}


def _package_records() -> set:
    """Names of the records the package's modules define, every module imported."""
    for module in pkgutil.iter_modules(towertop.__path__):
        importlib.import_module(f"towertop.{module.name}")
    # a class made in a doctest also subclasses _Record; only the ones a
    # module holds by name are the package's
    return {
        cls.__name__
        for cls in _Record.__subclasses__()
        if getattr(sys.modules.get(cls.__module__), cls.__name__, None) is cls
    }


def test_every_record_has_a_row():
    assert _package_records() == set(RECORDS)


@pytest.mark.parametrize("name", RECORDS)
def test_record_semantics(name):
    make, text, frozen, hashable = RECORDS[name]
    a, b = make(), make()
    assert type(a).__name__ == name
    assert repr(a) == text
    assert a == b and not a != b
    assert a != 0 and a.__eq__(0) is NotImplemented
    first = type(a)._fields[0]
    if frozen:
        with pytest.raises(AttributeError):
            setattr(a, first, getattr(a, first))
        with pytest.raises(AttributeError):
            delattr(a, first)
    else:
        setattr(a, first, getattr(b, first))
    assert (type(a).__hash__ is None) == (hashable is False)
    if hashable:
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError, match="unhashable type"):
            hash(a)


@pytest.mark.parametrize("name", RECORDS)
def test_records_copy_and_pickle_to_equal_records(name):
    record = RECORDS[name][0]()
    assert copy.copy(record) == record
    restored = pickle.loads(pickle.dumps(record))
    assert type(restored) is type(record) and repr(restored) == repr(record)
    assert restored == record


def test_homology_results_copy_but_their_read_only_representatives_do_not_pickle():
    h = homology(CIRCLE, 1)
    assert copy.copy(h) == h
    with pytest.raises(TypeError, match="mappingproxy"):
        pickle.dumps(h)


def test_equal_identity_maps_compare_and_hash_equal():
    assert SimplicialMap.identity(CIRCLE) == SimplicialMap.identity(CIRCLE)
    assert hash(SimplicialMap.identity(CIRCLE)) == hash(SimplicialMap.identity(CIRCLE))


def test_a_complex_pickles_after_homology_and_starts_cold():
    k = SimplicialComplex.from_maximal([(1, 2), (2, 3), (1, 3)])
    group = homology(k, 1).group
    restored = pickle.loads(pickle.dumps(k))
    assert restored == k and restored._results == {}
    assert homology(restored, 1).group == group
    assert copy.copy(k)._results == {}


class _ForgedSmith:
    """Pickles as a Smith decomposition whose U is one entry off."""

    def __reduce__(self):
        s = smith_normal_form(IntegerMatrix([[2, 4], [6, 8]]))
        u = IntegerMatrix([[1, 0], [3, 0]])
        return SmithDecomposition, (s.matrix, u, s.uinv, s.d, s.v)


def test_unpickling_a_smith_decomposition_verifies_it():
    with pytest.raises(AssertionError):
        pickle.loads(pickle.dumps(_ForgedSmith()))


class _ForgedHermite:
    """Pickles as a Hermite form whose one row is one entry off its recorded combination."""

    def __reduce__(self):
        h = hermite_normal_form(IntegerMatrix([[2, 4], [3, 6]]))
        return HermiteForm, (h.matrix, IntegerMatrix([[1, 3]]), h.pivots, h.transform)


def test_unpickling_a_hermite_form_verifies_it():
    with pytest.raises(AssertionError):
        pickle.loads(pickle.dumps(_ForgedHermite()))


class _ForgedReduction:
    """Pickles as an edge's reduction whose pi sends the pivot vertex to twice the kept one."""

    def __reduce__(self):
        r = _reduction(EDGE, "homology", 0, False)
        return ChainReduction, (r.incoming, r.outgoing, r.homotopy, r.residual, r.iota, (((0, 1),), ((0, 2),)))


def test_unpickling_a_chain_reduction_verifies_it():
    with pytest.raises(AssertionError, match="^pi is not a chain map$"):
        pickle.loads(pickle.dumps(_ForgedReduction()))


def test_only_the_record_constructor_assigns_past_the_frozen_setattr():
    def scopes(node, scope):
        """Enclosing class and function names of every ``object.__setattr__`` under node."""
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from scopes(child, scope + (child.name,))
                continue
            if (
                isinstance(child, ast.Attribute)
                and child.attr == "__setattr__"
                and isinstance(child.value, ast.Name)
                and child.value.id == "object"
            ):
                yield ".".join(scope)
            yield from scopes(child, scope)

    found = [
        (path.name, scope)
        for path in sorted(pathlib.Path(towertop.__file__).parent.glob("*.py"))
        for scope in scopes(ast.parse(path.read_text(encoding="utf-8")), ())
    ]
    assert found == [("abelian.py", "_Record.__init__")]


def test_records_compare_by_their_values():
    assert Lim1Class("Zero", "r") != Lim1Class("Zero", "r", "Q/Z")
    assert Violation("C1", 1, (1,), "d") != Violation("C2", 1, (1,), "d")
    assert Certificate("periodic") == Certificate("periodic", offset=0, period=1)
    assert Certificate("periodic") != Certificate("periodic", period=2)
    # the same values in another record class are not equal
    assert ComplexViolation("k", (1,)) != Violation("k", (1,), None, None)


def test_records_bind_positional_keyword_and_default_arguments():
    full = Lim1Class("Uncountable", "r", "Q/Z")
    assert full == Lim1Class("Uncountable", display="Q/Z", reason="r")
    assert full == Lim1Class(verdict="Uncountable", reason="r", display="Q/Z")
    assert Lim1Class("Zero", "r").display is None
    assert NotFinitelyStable("r", ()).certified is False
    assert ColimResult(Z, 0) == ColimResult(group=Z, index=0, note="")
    assert Violation("C1", 1, (1,), "d").detail == "d"
    assert Certificate(period=2, kind="periodic") == Certificate("periodic", 0, 2, None, None)


@pytest.mark.parametrize(
    "args, kwargs, message",
    [
        (("Zero",), {}, "Lim1Class() missing argument 'reason'"),
        (("Zero", "r"), {"colour": 1}, "Lim1Class() got an unexpected keyword argument 'colour'"),
        (("Zero", "r"), {"verdict": "Zero"}, "Lim1Class() got multiple values for argument 'verdict'"),
        (("Zero", "r", None, 4), {}, "Lim1Class() takes 3 arguments but 4 were given"),
    ],
)
def test_records_reject_a_missing_unknown_repeated_or_surplus_argument(args, kwargs, message):
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        Lim1Class(*args, **kwargs)


def test_homology_results_compare_without_the_kept_factorization():
    kept = HomologyResult(Z, (), 1, (), (), (), (((0, 1),),), 0)
    other = HomologyResult(Z, (), 1, (), (), ((),), (((0, 3),),), 1)
    assert kept == other and hash(kept) == hash(other)
    assert kept != HomologyResult(Z, (), 2, (), (), (), (((0, 1),),), 0)
    h = homology(CIRCLE, 1)
    assert all(name not in repr(h) for name in ("outgoing", "class_columns", "residual_rank"))


@pytest.mark.parametrize(
    "args, message",
    [
        (("loop",), "unknown certificate kind: 'loop'"),
        (("periodic", -1), "certificate offset must be nonnegative"),
        (("periodic", 0, 0), "certificate period must be positive"),
    ],
)
def test_certificates_check_their_fields_on_construction(args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Certificate(*args)

