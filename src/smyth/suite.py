"""Named property checks, suite scopes, and witness replay.

Every property is a total function from a JSON-ready payload to a
CheckReport and is registered by name, so a failing report can always
be replayed: feed ``witness["instance"]`` back to the property that
produced it.  Only this module makes reports, and only in one place.
Each property is written as a law function of a payload's ``_Case``
that, like each public ``check_*``, returns ``None`` when its laws
hold, the first violation it finds, or a skip reason; ``_property``
registers it by name and files the outcome on that payload.  A payload
is validated, parsed and its capacity read once, as its case is made.
Suites are deterministic: the same scope and seed produce the same
report list, byte for byte.
"""

from __future__ import annotations

import random
import zlib
from collections.abc import Callable
from functools import lru_cache, wraps
from operator import itemgetter

from .completion import check_sigma_theorem, lambda_sharp
from .docio import document_from_payload, document_of_poset, point_lists
from .errors import (
    CapacityError,
    IrreducibilityError,
    NotIsomorphismError,
    RangeError,
    SigmaUndefinedError,
)
from .generators import _draw_monotone_image, all_posets, random_poset
from .maps import (
    MonotoneRule,
    _identity_violation,
    _lift,
    _made,
    anchored_extensions,
    check_minimality,
    identity,
    lift_homeomorphism,
)
from .poset import (
    FinitePoset,
    dimension,
    gather,
    is_chain,
    is_order_embedding,
    iter_bits,
    relabel,
    resolve_capacity,
)
from .powerdomain import (
    PowerdomainSpace,
    _points_below,
    _points_inside,
    build,
    check_embedding_theorem,
    hat_powerdomain,
    is_phi_surjective,
    powerdomain_dimension,
)
from .report import CheckReport, failed, instance_text, passed, skipped
from .topology import open_sets, poset_of_topology

SAMPLED_MAPS = 10
MINIMALITY_CAPACITY = 4096
CHAIN2 = FinitePoset.from_cover_relations(2, [(0, 1)])


class _Case:
    """A validated payload, its poset and the default capacity, read once.

    The poset comes from a small cache keyed by the validated document,
    so the properties run on one payload share one immutable poset,
    with its covers, linear extension and hash computed once.  A case
    holds no space: each law builds what it reads.
    """

    __slots__ = ("payload", "poset", "capacity")

    def __init__(self, payload: dict) -> None:
        doc = document_from_payload(payload)
        self.payload = payload
        self.poset = _poset_from(doc.n, doc.covers, doc.labels)
        self.capacity = resolve_capacity(None)


@lru_cache(maxsize=16)
def _poset_from(
    n: int, covers: tuple[tuple[int, int], ...], labels: tuple[str, ...] | None
) -> FinitePoset:
    return FinitePoset.from_cover_relations(n, covers, labels)


# The case of the payload that ``_reports`` runs, None outside it.
_entered: _Case | None = None

PROPERTIES: dict[str, Callable[[dict], CheckReport]] = {}


def _property(name: str):
    """Register a law function as the property ``name``.

    A law takes a ``_Case`` and returns ``None`` when it holds, the
    violation dict of the first law it finds broken, or a skip reason as
    a ``str``.  The registered property runs the law on the case that
    ``_reports`` holds for its very payload, else on a new one, and files
    its outcome as that payload's report.
    """
    def register(law):
        @wraps(law)
        def prop(payload: dict) -> CheckReport:
            case = _entered
            if case is None or case.payload is not payload:
                case = _Case(payload)
            outcome = law(case)
            if outcome is None:
                return passed(name, payload)
            if isinstance(outcome, str):
                return skipped(name, payload, outcome)
            return failed(name, payload, **outcome)
        PROPERTIES[name] = prop
        return prop
    return register


@_property("topology-round-trip")
def prop_topology_round_trip(case: _Case) -> dict | None:
    """Opens determine the order: rebuilding from the topology is exact."""
    poset = case.poset
    recovered = poset_of_topology(poset.n, open_sets(poset), poset.labels)
    if recovered != poset:
        return {"law": "recovers-order",
                "recovered": document_of_poset(recovered).to_payload()}
    return None


@_property("embedding-theorem")
def prop_embedding_theorem(case: _Case) -> dict | None:
    """The laws of ``check_embedding_theorem`` on the built powerdomain."""
    return check_embedding_theorem(build(case.poset, case.capacity))


@_property("powerdomain-dimension")
def prop_powerdomain_dimension(case: _Case) -> dict | None:
    """dim of the powerdomain is n - 1.

    Measured over the built order's covers, not the grading that
    ``powerdomain_dimension`` reads.  The paper's "at least dim of the
    base, with equality exactly for chains" follows: a chain of the base
    has at most n elements, so its dimension is at most n - 1, with
    equality exactly when every two elements are comparable, which
    ``is_chain`` reads off the rows.
    """
    pd_dim = dimension(build(case.poset, case.capacity).order)
    if pd_dim != case.poset.n - 1:
        return {"law": "n-minus-one", "got": pd_dim}
    return None


@_property("phi-onto-iff-chain")
def prop_phi_onto_iff_chain(case: _Case) -> dict | None:
    """The principal-point map is onto exactly over a linear base, and
    then an order-embedding, so an isomorphism: no search is run."""
    space = build(case.poset, case.capacity)
    onto = is_phi_surjective(space)
    if onto != is_chain(case.poset):
        return {"law": "onto-iff-chain", "onto": onto}
    if onto and not is_order_embedding(case.poset, space.order, space.phi_index):
        return {"law": "onto-gives-isomorphism"}
    return None


@_property("zariski-equals-vietoris")
def prop_zariski_equals_vietoris(case: _Case) -> dict | None:
    """Containment opens and order-principal opens agree on every open.

    The hat space's points are the opens of the base, as a build derives
    them, so no open is validated again; each pair of opens is compared
    as point masks.
    """
    space = build(case.poset, case.capacity)
    hat = hat_powerdomain(case.poset, case.capacity)
    for omega in hat.points:
        direct = _points_inside(space, omega)
        via_order = _points_below(space, omega)
        if direct != via_order:
            return {"law": "opens-agree", "open": omega,
                    "direct": list(iter_bits(direct)),
                    "via_order": list(iter_bits(via_order))}
    if _points_inside(hat, 0) != 1 or hat.points[0] != 0:
        return {"law": "empty-open-bottom"}
    return None


def _endo_images(case: _Case) -> list[tuple[int, ...]]:
    """The images of the endomaps of the case's poset to pair up,
    distinct, in first-drawn order: every endomap up to three elements,
    else ``SAMPLED_MAPS`` draws on one rule, seeded by the payload's
    text, as many ``random_monotone_map`` calls would draw them."""
    poset = case.poset
    if poset.n <= 3:
        return list(anchored_extensions(poset, {}, poset, case.capacity))
    rng = random.Random(zlib.crc32(instance_text(case.payload).encode()))
    rule = MonotoneRule(poset, {}, poset)
    choices: dict[int, tuple[int, ...]] = {}
    images: list[tuple[int, ...]] = []
    attempts = 0
    while len(images) < SAMPLED_MAPS and attempts < 50 * SAMPLED_MAPS:
        attempts += 1
        drawn = _draw_monotone_image(rule, choices, rng)
        if drawn is not None:
            images.append(drawn)
    return list(dict.fromkeys(images))


def _gatherer(indices: tuple[int, ...]) -> Callable[[tuple], tuple]:
    """``gather(values, indices)`` as a function of ``values``: the one
    ``itemgetter`` from two indices on."""
    if len(indices) > 1:
        return itemgetter(*indices)
    return lambda values: gather(values, indices)


@_property("functor-laws")
def prop_functor_laws(case: _Case) -> dict | None:
    """Composition and identity survive the powerdomain construction.

    The space is built once; every lift is made on that space, with no
    lift cache, as the image tuple of a map from the space's order to
    itself.  The identity law is checked once, on the one poset every
    map lives on, even when no map was drawn.  Each image
    ``_endo_images`` returns is lifted once, and each distinct base
    composite once, keyed by its image, since many pairs share one; a
    composite equal to a map reuses that map's lift.
    No map or lift is validated: the maps are monotone by construction,
    and these laws are what certify the lifts.  In one pass over the
    maps ``f``, the lifted composites of ``f`` with every map ``g`` and
    the composites of their lifts are gathered with one ``itemgetter``
    each and compared as two lists; the first index where the lists of
    the first such ``f`` differ is the first failing pair in (f, g)
    order, named by the images of ``f`` and ``g``.  An identity failure
    fails every pair, so it names none.
    """
    images = _endo_images(case)
    space = build(case.poset, case.capacity)
    violation = _identity_violation(space)
    if violation is not None:
        return violation
    lifts = {image: _lift(space, space, image) for image in images}
    lifted_images = [lifts[image] for image in images]
    for f, lifted_f in zip(images, lifted_images):
        composites = list(map(_gatherer(f), images))
        for composite in composites:
            if composite not in lifts:
                lifts[composite] = _lift(space, space, composite)
        expected = [lifts[composite] for composite in composites]
        got = list(map(_gatherer(lifted_f), lifted_images))
        if expected != got:
            k = next(k for k, (lifted, composed) in enumerate(zip(expected, got))
                     if lifted != composed)
            return {"law": "composition", "expected": list(expected[k]),
                    "got": list(got[k]), "f": list(f), "g": list(images[k])}
    return None


@_property("extension-minimality")
def prop_extension_minimality(case: _Case) -> dict | str | None:
    """The induced powerdomain map is least among extensions.

    Exercised against every monotone map into the two-element chain
    (the Sierpinski-valued maps).  Those are the indicators of the
    down-sets of the base, so they are read off the points of its built
    powerdomain, plus the empty set, as image tuples in sorted order,
    the order of ``all_monotone_images``.  ``check_minimality``
    certifies each with one mask comparison and counts its extensions,
    as down-sets, only when they may be more than the capacity; a map it
    does not certify is judged against its sup extension, which names
    the law and witness.  More than the capacity is reported as
    skipped, not guessed, and so is a powerdomain over the default
    capacity; the 5-element antichain is over the budget.  A failure
    names the image of the first failing map as ``map``.
    """
    try:
        for image in _chain_images(build(case.poset, case.capacity)):
            violation = check_minimality(
                _made(case.poset, CHAIN2, image), MINIMALITY_CAPACITY)
            if violation is not None:
                return {**violation, "map": list(image)}
    except CapacityError as exc:
        return f"enumeration over budget: {exc}"
    return None


def _chain_images(space: PowerdomainSpace) -> list[tuple[int, ...]]:
    """The image tuples of the monotone maps of ``space.base`` into
    ``CHAIN2``, sorted: the indicator of the complement of each point,
    and of the empty set."""
    bits = [1 << x for x in range(space.base.n)]
    return sorted(tuple([0 if zeros & bit else 1 for bit in bits])
                  for zeros in (0, *space.points))


@_property("lift-round-trip")
def prop_lift_round_trip(case: _Case) -> dict | None:
    """Lifting inverts inducing on a relabeled copy of the base.

    The rotation is lifted on the two spaces and made a map between
    their orders, the one lift of the suite that leaves it, for
    ``lift_homeomorphism``.
    """
    poset, capacity = case.poset, case.capacity
    rotation = tuple((i + 1) % poset.n for i in range(poset.n))
    other = relabel(poset, rotation)
    sigma = _made(poset, other, rotation)
    space, other_space = build(poset, capacity), build(other, capacity)
    induced_iso = _made(space.order, other_space.order, _lift(space, other_space, rotation))
    try:
        lifted = lift_homeomorphism(space, other_space, induced_iso)
    except NotIsomorphismError:
        return {"law": "induced-map-is-isomorphism"}
    except IrreducibilityError:
        return {"law": "principal-to-principal"}
    if lifted != sigma:
        return {"law": "lift-after-induce", "got": list(lifted.image)}
    return None


@_property("sup-extension")
def prop_sup_extension(case: _Case) -> dict | str | None:
    """Sup-extension laws for the identity map, where sups allow it."""
    try:
        base_map = identity(case.poset)
        return check_sigma_theorem(base_map, lambda_sharp(base_map))
    except SigmaUndefinedError as exc:
        return f"not sup-complete: {exc}"
    except CapacityError as exc:
        return f"enumeration over budget: {exc}"


@_property("sup-extension-of-embedding")
def prop_sup_extension_of_embedding(case: _Case) -> dict | str | None:
    """Extending the principal embedding along sups is the identity.

    Then the laws of ``check_sigma_theorem``, on the one ``sharp``
    computed here, certify it per point at every size: it restricts to
    the principal embedding and preserves sups, so it is the least and
    the only sup-preserving extension.  The identity is an
    order-embedding, so ``sharp-is-identity`` also makes the sup
    extension of the principal embedding one.  Every point is the sup
    of its principal points, so a missing sup fails ``sharp-is-defined``
    with its image mask.  A powerdomain over the capacity is reported
    as skipped.
    """
    try:
        space = build(case.poset, case.capacity)
        into_points = _made(case.poset, space.order, space.phi_index)
        sharp = lambda_sharp(into_points)
        if sharp.image != tuple(range(space.order.n)):
            return {"law": "sharp-is-identity", "got": list(sharp.image)}
        return check_sigma_theorem(into_points, sharp)
    except SigmaUndefinedError as exc:
        return {"law": "sharp-is-defined", "member_mask": exc.member_mask}
    except CapacityError as exc:
        return f"enumeration over budget: {exc}"


@_property("fixture-expectations")
def prop_fixture_expectations(case: _Case) -> dict | str | None:
    """Pinned powerdomain facts recorded in a document's expect block,
    which making the case has already validated."""
    expect = case.payload.get("expect")
    if expect is None:
        return "no expectations recorded"
    space = build(case.poset, case.capacity)
    if "points" in expect and point_lists(space) != expect["points"]:
        return {"key": "points", "actual": point_lists(space)}
    if "point_count" in expect and len(space.points) != expect["point_count"]:
        return {"key": "point_count", "actual": len(space.points)}
    if "dimension" in expect and powerdomain_dimension(space) != expect["dimension"]:
        return {"key": "dimension", "actual": powerdomain_dimension(space)}
    if "phi_onto" in expect and is_phi_surjective(space) != expect["phi_onto"]:
        return {"key": "phi_onto", "actual": is_phi_surjective(space)}
    return None


SUITE_GROUPS = {
    "embedding": (
        "topology-round-trip",
        "embedding-theorem",
        "powerdomain-dimension",
        "phi-onto-iff-chain",
        "zariski-equals-vietoris",
    ),
    "functor": (
        "functor-laws",
        "extension-minimality",
        "lift-round-trip",
    ),
    "sigma": (
        "sup-extension",
        "sup-extension-of-embedding",
    ),
}

PER_POSET_PROPERTIES = (
    SUITE_GROUPS["embedding"] + SUITE_GROUPS["functor"] + SUITE_GROUPS["sigma"]
)
SUITE_GROUPS["all"] = PER_POSET_PROPERTIES

FIXTURE_DOCS = (
    {
        "n": 3,
        "labels": ["a1", "a2", "b"],
        "covers": [[0, 2], [1, 2]],
        "expect": {
            "points": [[0], [1], [0, 1], [0, 1, 2]],
            "point_count": 4,
            "dimension": 2,
            "phi_onto": False,
        },
    },
    {
        "n": 2,
        "labels": ["c1", "c2"],
        "covers": [[0, 1]],
        "expect": {
            "points": [[0], [0, 1]],
            "point_count": 2,
            "dimension": 1,
            "phi_onto": True,
        },
    },
    {
        "n": 3,
        "labels": ["a", "b", "c"],
        "covers": [],
        "expect": {
            "points": [[0], [1], [2], [0, 1], [0, 2], [1, 2], [0, 1, 2]],
            "point_count": 7,
            "dimension": 2,
            "phi_onto": False,
        },
    },
    {
        "n": 16,
        "labels": [f"x{r}{c}" for r in range(4) for c in range(4)],
        "covers": sorted(
            [[4 * r + c, 4 * (r + 1) + c] for r in range(3) for c in range(4)]
            + [[4 * r + c, 4 * r + c + 1] for r in range(4) for c in range(3)]
        ),
        "expect": {"point_count": 69, "dimension": 15, "phi_onto": False},
    },
)


def _reports(case: _Case, names: tuple[str, ...]) -> list[CheckReport]:
    """The properties ``names`` on the case's payload, each through
    ``PROPERTIES`` and on the case in ``_entered`` until they end."""
    global _entered
    _entered = case
    try:
        return [PROPERTIES[name](case.payload) for name in names]
    finally:
        _entered = None


def run_suite(scope: str) -> list[CheckReport]:
    """Run the named scope and return its reports in canonical order.

    Scopes: ``exhaustive-N`` (all labeled posets on N elements),
    ``fixtures`` (each shipped document through every per-poset property
    and ``fixture-expectations``),
    and ``random:COUNT:SIZE:SEED`` (reproducible random posets).
    """
    names = PER_POSET_PROPERTIES
    if scope.startswith("exhaustive-"):
        try:
            n = int(scope.split("-", 1)[1])
        except ValueError as exc:
            raise RangeError(f"bad scope {scope!r}") from exc
        payloads = (document_of_poset(poset).to_payload() for poset in all_posets(n))
    elif scope == "fixtures":
        payloads = FIXTURE_DOCS
        names += ("fixture-expectations",)
    elif scope.startswith("random:"):
        parts = scope.split(":")
        if len(parts) != 4:
            raise RangeError(f"bad scope {scope!r}; want random:COUNT:SIZE:SEED")
        try:
            count, size, seed = (int(p) for p in parts[1:])
        except ValueError as exc:
            raise RangeError(f"bad scope {scope!r}") from exc
        if count < 0 or size < 1:
            raise RangeError(f"bad scope {scope!r}; want COUNT >= 0 and SIZE >= 1")
        payloads = (document_of_poset(random_poset(1 + (k % size), seed + k)).to_payload()
                    for k in range(count))
    else:
        raise RangeError(f"unknown scope {scope!r}")
    return [report for payload in payloads for report in _reports(_Case(payload), names)]


def replay(report: CheckReport) -> CheckReport:
    """Re-run the property that produced a failing report on its witness."""
    if report.witness is None or "instance" not in report.witness:
        raise RangeError("the report carries no replayable witness")
    if report.property not in PROPERTIES:
        raise RangeError(f"no registered property {report.property!r} to replay")
    return PROPERTIES[report.property](report.witness["instance"])


def check_payload(payload: dict, suite: str) -> list[CheckReport]:
    """Run one suite group against a single document payload.

    The payload is validated once, as its case is made, so a malformed
    one raises DocumentError before any property runs.
    """
    if suite not in SUITE_GROUPS:
        raise RangeError(f"unknown suite {suite!r}")
    case = _Case(payload)
    expect = ("fixture-expectations",) if payload.get("expect") is not None else ()
    return _reports(case, SUITE_GROUPS[suite] + expect)
