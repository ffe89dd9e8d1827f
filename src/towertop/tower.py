"""Inverse sequences of groups and complexes, with exact limit analysis.

A tower is indexed so that level 0 is the coarsest stage and
``bonds[i]`` maps level ``i + 1`` into level ``i``.  A direct system
runs the other way: ``bonds[i]`` maps level ``i`` into level ``i + 1``.

Only a finite truncation of a tower is ever observed, so any claim
about its limit behaviour is either (a) a statement about the window
actually computed, or (b) an extrapolation licensed by a certificate.
A certificate asserts that the visible pattern continues forever:
``periodic`` means levels and bonds repeat (up to canonical
coordinates) with the stated offset and period; ``shift_family`` means
every bond beyond the offset is injective and not surjective (in a
direct system, surjective and not injective), with the limiting value
carried as ``stable_core``.  Certificates are verified against the
visible data on construction and rejected when the data contradicts
them; what they add is the right to extend the verified pattern beyond
the truncation.

The image chain at a level is the descending sequence of images of the
composite bonds from deeper and deeper stages: entry k is the image of
the k-fold composite, with entry 0 the full group.  Composites are
never built as homs: a composite's canonical matrix is the product of
its factors' canonical matrices with the target's torsion rows reduced
(each factor carries its source's relations into its target's), and
every product is checked where it is made (``_composed``).  Image
chains have one walker (``_image_chain``): a period map acts on its
level, its powers are the image chain of its constant tower, and a
carry-down reads a composite a chain keeps.  A tower keeps each chain
it builds, so ``ml_status``, ``lim1_class`` and ``stable_lim`` on one
tower share the same subgroups and reduce each to its Hermite form at
most once.  An image chain descends, so an image repeats when it lies
inside the next one, and ``_first_repeat`` extends a chain only until
it finds that.  Decisions read Hermite forms alone: a group is factored
only to be returned or shown.  A ``NotStable`` holds the chains it was
given and an ``MLStatus`` its chain; each reads the isomorphism types
through those subgroups, which keep them, so nothing is factored until
they are read and nothing twice.
"""

from typing import List, Optional, Tuple, Union

from .abelian import (
    FGAbelianGroup,
    GroupHom,
    IntegerMatrix,
    Subgroup,
    _Record,
    _exact_int,
)
from .simplicial import (
    cohomology,
    homology,
    induced_cohomology_map,
    induced_map,
)


class Certificate(_Record):
    """Assertion that a tower's visible pattern continues forever.

    kind = "periodic": levels and bonds from ``offset`` on repeat with
    the given ``period`` (compared in canonical coordinates — the
    abstract isomorphism type of the data, not label identity).

    kind = "shift_family": beyond ``offset`` every bond is injective
    and not surjective (surjective and not injective in a direct
    system), and the limit equals ``stable_core``.

    ``lim1_display`` optionally names the derived-limit quotient shown
    when the first derived limit is uncountable.
    """

    __slots__ = _fields = ("kind", "offset", "period", "stable_core", "lim1_display")
    _defaults = {"offset": 0, "period": 1, "stable_core": None, "lim1_display": None}

    def __init__(self, *args, **kwargs):
        _Record.__init__(self, *args, **kwargs)
        if self.kind not in ("periodic", "shift_family"):
            raise ValueError(f"unknown certificate kind: {self.kind!r}")
        if _exact_int(self.offset, "certificate offset") < 0:
            raise ValueError("certificate offset must be nonnegative")
        if _exact_int(self.period, "certificate period") < 1:
            raise ValueError("certificate period must be positive")


def _checked_sequence(levels, bonds, forward: bool):
    """Levels and bonds as tuples, checked to form a sequence.

    Bond ``i`` maps level ``i + 1`` into level ``i`` in an inverse
    sequence and level ``i`` into level ``i + 1`` in a direct one.
    """
    levels, bonds = tuple(levels), tuple(bonds)
    name = "direct system" if forward else "tower"
    if not levels:
        raise ValueError(f"a {name} needs at least one level")
    if len(bonds) != len(levels) - 1:
        raise ValueError(f"a {name} needs exactly one bond per adjacent pair of levels")
    for i, b in enumerate(bonds):
        src, tgt = (i, i + 1) if forward else (i + 1, i)
        if b.source != levels[src] or b.target != levels[tgt]:
            raise ValueError(f"bond {i} does not map level {src} into level {tgt}")
    return levels, bonds


def _check_window(window: Optional[int]) -> None:
    """Reject a window below 1; None stands for the whole tower."""
    if window is not None and window < 1:
        raise ValueError("window must be at least 1")


def _check_period_length(levels, cert: Certificate) -> None:
    if cert.kind == "periodic" and len(levels) < cert.offset + cert.period + 1:
        raise ValueError("periodic certificate needs one full period of levels")


def _verify_group_certificate(levels, bonds, cert: Certificate, forward: bool) -> None:
    _check_period_length(levels, cert)
    if cert.kind == "periodic":
        o, p = cert.offset, cert.period
        for j in range(o, len(levels) - p):
            if levels[j].invariants != levels[j + p].invariants:
                raise ValueError(
                    f"certificate contradicted: levels {j} and {j + p} are not isomorphic"
                )
        for j in range(o, len(bonds) - p):
            if bonds[j].canonical_matrix() != bonds[j + p].canonical_matrix():
                raise ValueError(
                    f"certificate contradicted: bonds {j} and {j + p} differ canonically"
                )
    else:
        # a direct system shrinks dually: bonds onto, never one-to-one
        need, bar = ("surjective", "injective") if forward else ("injective", "surjective")
        for j in range(cert.offset, len(bonds)):
            if not getattr(bonds[j], "is_" + need)():
                raise ValueError(f"certificate contradicted: bond {j} is not {need}")
            if getattr(bonds[j], "is_" + bar)():
                raise ValueError(f"certificate contradicted: bond {j} is {bar}")


class _GroupSequence:
    """Levels, bonds and an optional certificate, verified on construction.

    Levels and bonds are tuples, so nothing derived from them and kept
    on the sequence can go stale.
    """

    __slots__ = ("levels", "bonds", "certificate")
    forward = False

    def __init__(self, levels, bonds, certificate: Optional[Certificate] = None):
        self.levels, self.bonds = _checked_sequence(levels, bonds, self.forward)
        if certificate is not None:
            _verify_group_certificate(self.levels, self.bonds, certificate, self.forward)
        self.certificate = certificate

    def __repr__(self) -> str:
        inner = ", ".join(g.describe() for g in self.levels)
        return f"<{type(self).__name__} {inner}>"


class GroupTower(_GroupSequence):
    """Inverse sequence of finitely generated abelian groups.

    Each level's image chain and, in ``_composites``, the canonical
    matrix of the composite of bonds behind each of its entries are kept
    once built (see ``_image_chain``), and so is a periodic
    certificate's period map with its stable image (see
    ``_kept_period_image``), so analyses of one tower share their
    subgroups and the Hermite forms and groups those subgroups keep.
    """

    __slots__ = ("_chains", "_composites", "_period_images")

    def __init__(self, levels, bonds, certificate: Optional[Certificate] = None):
        super().__init__(levels, bonds, certificate)
        self._chains = [None] * len(self.levels)
        self._composites = [None] * len(self.levels)
        self._period_images = {}


class DirectSystem(_GroupSequence):
    """Direct sequence of finitely generated abelian groups."""

    __slots__ = ()
    forward = True


class ComplexTower:
    """Inverse sequence of simplicial complexes with optional marked pairs.

    ``marked_K`` and ``marked_L`` are per-level subcomplexes used by
    the compactohedral validators; either may be omitted.  A
    certificate on a complex tower asserts periodicity of the induced
    homology data (not of the complexes themselves) and is checked
    when homology towers are formed.
    """

    __slots__ = ("levels", "bonds", "marked_K", "marked_L", "certificate")

    def __init__(
        self,
        levels,
        bonds,
        marked_K=None,
        marked_L=None,
        certificate: Optional[Certificate] = None,
    ):
        self.levels, self.bonds = _checked_sequence(levels, bonds, False)
        self.marked_K = self._check_marked(marked_K, "marked_K")
        self.marked_L = self._check_marked(marked_L, "marked_L")
        if certificate is not None:
            _check_period_length(self.levels, certificate)
        self.certificate = certificate

    def _check_marked(self, marked, name):
        if marked is None:
            return None
        marked = list(marked)
        if len(marked) != len(self.levels):
            raise ValueError(f"{name} needs one subcomplex per level")
        for i, sub in enumerate(marked):
            if not sub.is_subcomplex_of(self.levels[i]):
                raise ValueError(f"{name}[{i}] is not a subcomplex of level {i}")
        return marked

    def __repr__(self) -> str:
        return f"<ComplexTower with {len(self.levels)} levels>"


class MLStatus(_Record):
    """Image-chain analysis of one tower level.

    verdict is one of "Stabilized" (with the first stable index),
    "StrictlyDecreasing" (certified to keep falling forever), or
    "UndeterminedWithinWindow".  ``image_chain`` lists the isomorphism
    types of the composite images, starting with the full group.  The
    status holds the chain of images ``ml_status`` observed and reads
    those groups through it, as ``NotStable`` does.
    """

    __slots__ = ("verdict", "index", "_chain", "reason")
    _fields = ("verdict", "index", "image_chain", "reason")

    def __init__(self, verdict: str, index: Optional[int], chain, reason: str):
        _Record.__init__(self, verdict, index, tuple(chain), reason)

    @property
    def image_chain(self) -> List[FGAbelianGroup]:
        return [s.as_group() for s in self._chain]


class Lim1Class(_Record):
    """Classification of the first derived limit of a tower.

    verdict is "Zero", "Uncountable", or "Undetermined"; ``display``
    optionally names the uncountable quotient.
    """

    __slots__ = _fields = ("verdict", "reason", "display")
    _defaults = {"display": None}


class NotStable(_Record):
    """Outcome of ``stable_lim`` when no stable value is reachable.

    ``image_chains`` lists, per level looked at, the isomorphism types
    of the images in its chain.  The outcome holds the chains
    ``stable_lim`` observed and reads those types through them.
    """

    __slots__ = ("reason", "_chains")
    _fields = ("reason", "image_chains")

    def __init__(self, reason: str, chains):
        _Record.__init__(self, reason, tuple(chains))

    @property
    def image_chains(self) -> tuple:
        return tuple(tuple(s.as_group().invariants for s in subs) for subs in self._chains)


class NotFinitelyStable(_Record):
    """Outcome of ``colim_direct_system`` without finite stabilization."""

    __slots__ = _fields = ("reason", "level_invariants", "certified")
    _defaults = {"certified": False}


class ColimResult(_Record):
    __slots__ = _fields = ("group", "index", "note")
    _defaults = {"note": ""}


# -- image chains -------------------------------------------------------


def _composed(
    target: FGAbelianGroup, outer: IntegerMatrix, inner: IntegerMatrix, source: FGAbelianGroup
) -> IntegerMatrix:
    """Canonical matrix of a composite from the canonical matrices of its two factors.

    ``inner`` maps ``source`` into a middle group and ``outer`` maps
    that group into ``target``; the composite's canonical matrix is
    their product with the target's torsion rows reduced.  The product
    is checked to carry the source's relations into the target's: each
    torsion column times its order must have zero free entries and
    torsion entries divisible by the target's invariants.  A failure
    raises AssertionError (not ``assert``, so the check survives -O).
    """
    product = target._reduced(outer * inner)
    f = target.free_rank
    for j, order in enumerate(source.torsion, source.free_rank):
        column = [row[j] * order for row in product.rows]
        if any(column[:f]) or any(c % t for c, t in zip(column[f:], target.torsion)):
            raise AssertionError("composite does not carry source relations into target relations")
    return product


def _image_chain(tower: GroupTower, level: int, depth: int) -> List[Subgroup]:
    """Images in levels[level] of the composites of 0..depth bonds below it.

    The tower keeps the chain and extends it past what earlier calls
    built; a shorter window gets a prefix of the same subgroups.  The
    prefix is a new list, so a ``NotStable`` holding it reads the chain
    as it was observed however far later calls extend the tower's.
    Entry 1 is the first bond's own image; each deeper composite is the
    one behind the entry before times the next bond's canonical matrix
    (``_composed``), and its image is spanned by the columns of that
    matrix, which ``_composites[level][k]`` keeps for entry k.  On an
    endomorphism's constant tower the entries are its powers' images.
    """
    chain, composites = tower._chains[level], tower._composites[level]
    group = tower.levels[level]
    if chain is None:
        chain = tower._chains[level] = [Subgroup.full(group)]
        composites = tower._composites[level] = [None]
    while len(chain) <= depth:
        k = len(chain) - 1
        b = tower.bonds[level + k]
        if k == 0:
            running, image = b.canonical_matrix(), b.image_subgroup()
        else:
            running = _composed(group, composites[k], b.canonical_matrix(), b.source)
            image = Subgroup(group, running.transpose().rows)
        composites.append(running)
        # an image on the very same generators is the same subgroup:
        # keep the earlier object and the Hermite form and group it holds
        chain.append(chain[-1] if image.generators == chain[-1].generators else image)
    return chain[: depth + 1]


def _image_of(sub: Subgroup, canonical: IntegerMatrix, target: FGAbelianGroup) -> Subgroup:
    """Image in ``target`` of ``sub`` under the map with canonical matrix ``canonical``: one product."""
    gens = IntegerMatrix._derived(sub.generators, canonical.ncols)
    return Subgroup(target, (gens * canonical.transpose()).rows)


def _first_repeat(tower: GroupTower, level: int, depth: int) -> Optional[int]:
    """First k below ``depth`` whose image at ``level`` equals image k + 1, or None.

    An image chain descends: image k + 1 is spanned by image k's
    generators times the next bond (``_image_chain``), so it lies inside
    image k, and image k equals it exactly when image k lies inside it.
    That reads the deeper image's Hermite form alone, and only when the
    residues mod 2 show no drop (``Subgroup``).  The kept chain is
    extended one entry at a time, so it ends one entry past the repeat.
    """
    for k in range(depth):
        shallow, deep = _image_chain(tower, level, k + 1)[k:]
        if shallow.is_subset_of(deep):
            return k
    return None


def _iteration_bound(group: FGAbelianGroup) -> int:
    # enough steps for both the free part (rank drops + unimodular
    # stabilization) and the torsion part (descending chain in a
    # finite group whose strict drops at least halve it) to settle
    return 2 * (group.free_rank + sum(t.bit_length() for t in group.torsion)) + 4


def _period_endo(seq: _GroupSequence, cert: Certificate, base: int) -> GroupHom:
    """One period of bonds as an endomorphism of the level at ``base``.

    Bonds are taken canonically from the certified pattern, so the
    composite exists even when ``base + period`` exceeds the window;
    they compose in the direction the sequence's bonds point.  The map
    is their product between the level's coordinate maps, so its
    canonical matrix is that product, reduced, in the level's own
    coordinates.
    """
    o, p = cert.offset, cert.period
    prod = None
    for j in range(base, base + p):
        m = seq.bonds[o + ((j - o) % p)].canonical_matrix()
        prod = m if prod is None else (m * prod if seq.forward else prod * m)
    level = seq.levels[base]
    return GroupHom(level, level, level.lifts * prod * level._to)


def _stable_endo_image(endo: GroupHom) -> Tuple[Subgroup, bool]:
    """The last image of iterated ``endo`` and whether it repeated.

    An image chain of a single endomorphism cannot pause and then drop
    (a repeat propagates forever), so a repeated image is the limit;
    absence of a repeat within the iteration bound rules one out, and
    the image returned is then that of the deepest power computed.  The
    powers' images are the image chain of the constant tower with
    ``endo`` as every bond, built by ``_first_repeat`` until it repeats
    or the bound is reached.
    """
    bound = _iteration_bound(endo.source)
    tower = GroupTower((endo.source,) * (bound + 1), (endo,) * bound)
    k = _first_repeat(tower, 0, bound)
    return _image_chain(tower, 0, bound if k is None else k)[-1], k is not None


def _kept_period_image(tower: GroupTower, base: int) -> Tuple[GroupHom, Subgroup, bool]:
    """The period map at ``base`` with ``_stable_endo_image`` of it, kept on the tower.

    The map depends on ``base`` only through its place in the period:
    the certificate makes levels a period apart isomorphic and takes
    the bonds cyclically.  So it is built and iterated once per place.
    """
    cert = tower.certificate
    place = cert.offset + (base - cert.offset) % cert.period
    kept = tower._period_images.get(place)
    if kept is None:
        endo = _period_endo(tower, cert, place)
        kept = tower._period_images[place] = (endo, *_stable_endo_image(endo))
    return kept


def _periodic_stable_image(tower: GroupTower, level: int, cert: Certificate) -> Optional[Subgroup]:
    """Certified eventual image at ``level``, or None when images keep falling.

    The stable image of the period map at ``base`` (the first level of
    the pattern at or below ``level``) is carried down to ``level`` by
    the composite of the bonds between them, the one ``level``'s image
    chain keeps behind entry ``base - level``.
    """
    base = max(level, cert.offset)
    _, stable, repeated = _kept_period_image(tower, base)
    if not repeated:
        return None
    group = tower.levels[level]
    if base == level:
        return Subgroup(group, stable.generators)
    _image_chain(tower, level, base - level)
    return _image_of(stable, tower._composites[level][base - level], group)


def _ml_verdict(tower: GroupTower, level: int, window: int) -> Tuple[str, Optional[int], str]:
    """Verdict, stable index and reason of ``ml_status``, arguments unchecked."""
    cert = tower.certificate
    unsettled = "certified pattern does not settle the chain at this level"

    if cert is not None and cert.kind == "periodic":
        stable = _periodic_stable_image(tower, level, cert)
        if stable is not None:
            # the kept chain is extended one entry at a time, so it ends
            # at the stable index or at the carry-down, whichever is deeper
            # every entry holds the eventual image: equal exactly when inside it
            for k in range(window + 1):
                if _image_chain(tower, level, k)[k].is_subset_of(stable):
                    return "Stabilized", k, "image chain reaches the certified eventual image"
            # stabilization is proved even though the window is too
            # short to exhibit the stable index
            return "Stabilized", None, "certified eventual image lies beyond the window"
        if all(b.is_injective() for b in tower.bonds[level:]):
            o, p = cert.offset, cert.period
            if any(not tower.bonds[j].is_surjective() for j in range(o, o + p)):
                return (
                    "StrictlyDecreasing",
                    None,
                    "certified periodic bonds are injective and drop rank every period",
                )
        return "UndeterminedWithinWindow", None, unsettled

    # shift_family: bonds beyond the offset are injective and not
    # surjective forever; injectivity of the observed prefix makes the
    # whole chain strictly decreasing from the offset on.  Otherwise,
    # and with no certificate, the window's first repeat decides
    if cert is not None and all(b.is_injective() for b in tower.bonds[level:]):
        return (
            "StrictlyDecreasing",
            None,
            "certified shrinking family: injective non-surjective bonds force strict descent",
        )
    repeat = _first_repeat(tower, level, window)
    if repeat is not None:
        return "Stabilized", repeat, "first repeated image within the window"
    if cert is None:
        unsettled = "no repeated image within the window and no certificate to extend it"
    return "UndeterminedWithinWindow", None, unsettled


def ml_status(tower: GroupTower, level: int, window: Optional[int] = None) -> MLStatus:
    """Image-chain verdict at one level.

    Without a certificate the verdict reports the window literally:
    the first repeated image stabilizes it, otherwise it is
    undetermined.  With a certificate the verdict extends the verified
    pattern: the certified eventual image (when it exists) decides
    stabilization, and an all-injective certified bond pattern with
    non-surjective bonds forces the chain to keep falling forever.
    """
    if level < 0 or level >= len(tower.levels):
        raise ValueError("level out of range")
    available = len(tower.bonds) - level
    if window is None:
        if available == 0:
            raise ValueError(f"level {level} has no bond below it")
        window = available
    _check_window(window)
    if window > available:
        raise ValueError(
            f"window {window} exceeds the truncated tower: only {available} bonds below level {level}"
        )
    verdict, index, reason = _ml_verdict(tower, level, window)
    return MLStatus(verdict, index, _image_chain(tower, level, window), reason)


def lim1_class(tower: GroupTower, window: Optional[int] = None) -> Lim1Class:
    """Classify the first derived limit: Zero, Uncountable, or Undetermined.

    For towers of finitely generated (hence countable) groups the
    derived limit is either zero or uncountable; it is zero exactly
    when every image chain stabilizes.  A certified strictly falling
    chain at any level therefore forces the uncountable side.
    """
    _check_window(window)
    verdicts = []
    for i in range(len(tower.levels)):
        available = len(tower.bonds) - i
        if available == 0:
            continue
        w = available if window is None else min(window, available)
        verdicts.append(_ml_verdict(tower, i, w)[0])
    if "StrictlyDecreasing" in verdicts:
        display = tower.certificate.lim1_display if tower.certificate else None
        return Lim1Class(
            "Uncountable",
            "an image chain is certified to keep falling; over countable groups "
            "the derived limit is then uncountable",
            display,
        )
    if all(v == "Stabilized" for v in verdicts):
        basis = (
            "image chains stabilize at every level within the window"
            if tower.certificate is None
            else "image chains stabilize at every level under the verified certificate"
        )
        return Lim1Class("Zero", basis)
    return Lim1Class(
        "Undetermined",
        "some image chain neither repeats within the window nor is certified to keep falling",
    )


# -- limits -------------------------------------------------------------


def stable_lim(
    tower: GroupTower, window: Optional[int] = None
) -> Union[FGAbelianGroup, NotStable]:
    """Inverse limit via stabilized image chains, when they stabilize.

    Every level's image chain must repeat within its window, and each
    bond must carry the finer stable image onto the coarser one with
    the same free rank and torsion order, read off their Hermite
    pivots: the kernel of such a surjection is finite, so it lies in
    the torsion, and equal torsion orders leave it trivial.  Those are
    compared first, so the finer image is pushed (one product with the
    bond's canonical matrix) only when they agree.  The limit is then
    the stable image at the coarsest level, or a one-level tower's level.
    This is deliberately partial: towers whose stable images keep
    proper inclusions (or whose chains never repeat) yield NotStable
    with the observed chains attached; their isomorphism types are
    computed only when ``image_chains`` is read.

    >>> z = FGAbelianGroup.free(1)
    >>> double = GroupHom(z, z, IntegerMatrix([[2]]))
    >>> stable_lim(GroupTower([z] * 3, [double] * 2))
    NotStable(reason='image chain at level 0 does not repeat within the window', image_chains=(((1, ()), (1, ()), (1, ())),))
    """
    _check_window(window)
    n = len(tower.levels)
    if n == 1:
        return tower.levels[0]
    stable = []
    chains = []
    for i in range(n - 1):
        available = len(tower.bonds) - i
        w = available if window is None else min(window, available)
        idx = _first_repeat(tower, i, w)
        subs = _image_chain(tower, i, w)
        chains.append(subs)
        if idx is None:
            if len(subs) >= 3:
                return NotStable(
                    f"image chain at level {i} does not repeat within the window", chains
                )
            idx = len(subs) - 2  # window too short to confirm; take the deepest image
        # the repeat test built the deeper, equal image's Hermite form
        stable.append(subs[idx + 1])
    for i, (coarse, fine) in enumerate(zip(stable, stable[1:])):
        same_type = fine._rank_and_order() == coarse._rank_and_order()
        bond = tower.bonds[i].canonical_matrix()
        if not (same_type and _image_of(fine, bond, coarse.group).equals(coarse)):
            return NotStable(
                f"the bond does not carry the stable image at level {i + 1} "
                f"isomorphically onto the stable image at level {i}",
                chains,
            )
    return stable[0].as_group()


def _unit_part_degree(endo: GroupHom) -> int:
    """Degree of the unit-constant part of the free block's characteristic polynomial.

    Computed exactly by ``polynomial.unit_part_degree`` (Faddeev–LeVerrier,
    then Zassenhaus factorization with Berlekamp splitting and Hensel
    lifting), which asserts that its factors multiply back to the
    characteristic polynomial.
    """
    r = endo.source.free_rank
    if r == 0:
        return 0
    from .polynomial import unit_part_degree  # deferred: most runs never need it

    return unit_part_degree([row[:r] for row in endo.canonical_matrix().rows[:r]])


def periodic_lim(group: FGAbelianGroup, endo: GroupHom) -> FGAbelianGroup:
    """Inverse limit of the constant tower with one endomorphism as every bond.

    The limit is the largest subgroup on which the endomorphism is
    bijective, namely the intersection of the images of its powers.
    When the image chain repeats, that intersection is reached exactly;
    otherwise the free rank is the degree of the unit-constant part of
    the characteristic polynomial on the free quotient, and the torsion
    has already stabilized within the iteration bound.  That degree comes
    from exact integer arithmetic in ``towertop.polynomial``
    (Faddeev–LeVerrier and a Zassenhaus factorization), and factors that
    fail to multiply back to the polynomial raise AssertionError.

    >>> z = FGAbelianGroup.free(1)
    >>> periodic_lim(z, GroupHom(z, z, IntegerMatrix([[2]]))).describe()
    '0'
    """
    if endo.source != group or endo.target != group:
        raise ValueError("periodic limit needs an endomorphism of the given group")
    return _periodic_limit(endo, *_stable_endo_image(endo))


def _periodic_limit(endo: GroupHom, image: Subgroup, repeated: bool) -> FGAbelianGroup:
    """``periodic_lim`` of ``endo`` from its ``_stable_endo_image``."""
    if repeated:
        return image.as_group()
    return image._torsion_plus_free(_unit_part_degree(endo))


def tower_lim(
    tower: GroupTower, window: Optional[int] = None
) -> Union[FGAbelianGroup, NotStable]:
    """Inverse limit, consuming the certificate when one is attached.

    Periodic towers reduce to ``periodic_lim`` of the one-period
    endomorphism; shrinking families carry their limit as certified
    data; everything else falls back to ``stable_lim``.
    """
    _check_window(window)
    cert = tower.certificate
    if cert is not None and cert.kind == "periodic":
        return _periodic_limit(*_kept_period_image(tower, cert.offset))
    if cert is not None and cert.kind == "shift_family":
        core = cert.stable_core
        return core if core is not None else FGAbelianGroup.trivial()
    return stable_lim(tower, window)


def colim_direct_system(
    system: DirectSystem, window: Optional[int] = None
) -> Union[ColimResult, NotFinitelyStable]:
    """Direct limit when it stabilizes at a finite stage.

    Uncertified systems are read literally: the colimit is the first
    level from which every observed bond is an isomorphism.  A periodic
    certificate reduces the question to the one-period endomorphism
    (between canonically equal levels an isomorphic composite forces
    every factor to be an isomorphism, and a non-invertible one keeps
    the system moving forever).  A shrinking-family certificate reports
    the certified core, reached beyond any finite stage.
    """
    _check_window(window)
    nb = len(system.bonds)
    w = nb if window is None else min(window, nb)
    bonds = system.bonds[:w]
    iso = [b.is_isomorphism() for b in bonds]
    t = len(iso)
    while t > 0 and iso[t - 1]:
        t -= 1
    invariants = tuple(g.invariants for g in system.levels)
    cert = system.certificate

    if cert is not None and cert.kind == "periodic":
        if _period_endo(system, cert, cert.offset).is_isomorphism():
            return ColimResult(
                system.levels[t],
                t,
                "periodic certificate: the period map is an isomorphism",
            )
        return NotFinitelyStable(
            "certified periodic with a non-invertible period map: "
            "the system never stabilizes at a finite stage",
            invariants,
            certified=True,
        )
    if cert is not None and cert.kind == "shift_family":
        core = cert.stable_core if cert.stable_core is not None else FGAbelianGroup.trivial()
        return ColimResult(
            core,
            len(system.levels) - 1,
            "certified shrinking family: value extrapolated to the certified core",
        )
    if t < len(iso) or nb == 0:
        return ColimResult(
            system.levels[t], t, "bonds are isomorphisms from this index on within the window"
        )
    return NotFinitelyStable(
        "bonds are not eventually isomorphisms within the window", invariants
    )


# -- towers induced on homology and cohomology ---------------------------


def _certified_sequence(holder, cert, levels, bonds) -> _GroupSequence:
    """The induced sequence, carrying a complex tower's certificate where it verifies.

    A certificate on complexes promises periodicity (or shrinking) of
    the induced algebra; the sequence takes it in the first form that
    verifies on construction and is built uncertified otherwise.
    """
    forms = []
    if cert is not None:
        forms.append(Certificate("periodic", cert.offset, cert.period, None, cert.lim1_display))
        if cert.kind == "shift_family":
            forms.append(
                Certificate(cert.kind, cert.offset, 1, cert.stable_core, cert.lim1_display)
            )
    for form in forms:
        try:
            return holder(levels, bonds, form)
        except ValueError:
            pass
    return holder(levels, bonds)


def homology_tower(
    tower: ComplexTower, n: int, reduced: bool = False
) -> GroupTower:
    """The induced tower of homology groups in dimension ``n``."""
    groups = [homology(k, n, reduced=reduced).group for k in tower.levels]
    homs = [induced_map(f, n, reduced=reduced) for f in tower.bonds]
    return _certified_sequence(GroupTower, tower.certificate, groups, homs)


def cohomology_system(tower: ComplexTower, n: int) -> DirectSystem:
    """The induced direct system of cohomology groups in dimension ``n``."""
    groups = [cohomology(k, n).group for k in tower.levels]
    homs = [induced_cohomology_map(f, n) for f in tower.bonds]
    return _certified_sequence(DirectSystem, tower.certificate, groups, homs)
