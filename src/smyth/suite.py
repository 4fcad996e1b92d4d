"""Named property checks, suite scopes, and witness replay.

Every property is a total function from a JSON-ready payload to a
CheckReport and is registered by name, so a failing report can always
be replayed: feed ``witness["instance"]`` back to the property that
produced it.  Only this module makes reports, and only in one place.
Each property is written as a law function of the parsed poset and its
payload that, like each public ``check_*``, returns ``None`` when its
laws hold, the first violation it finds, or a skip reason;
``_property`` registers it by name and, on each call, parses the
payload once, runs the law and files the outcome on that payload.
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
    _composition_violation,
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


def _poset_of(payload: dict) -> FinitePoset:
    """The payload's poset; the payload is validated on every call.

    The poset comes from a small cache keyed by the validated document,
    so the properties run on one payload share one immutable poset,
    with its covers, linear extension and hash computed once.
    """
    doc = document_from_payload(payload)
    return _poset_from(doc.n, doc.covers, doc.labels)


@lru_cache(maxsize=16)
def _poset_from(
    n: int, covers: tuple[tuple[int, int], ...], labels: tuple[str, ...] | None
) -> FinitePoset:
    return FinitePoset.from_cover_relations(n, covers, labels)


def _instance_seed(payload: dict) -> int:
    return zlib.crc32(instance_text(payload).encode())


PROPERTIES: dict[str, Callable[[dict], CheckReport]] = {}


def _property(name: str):
    """Register a law function as the property ``name``.

    A law takes ``(poset, payload)`` and returns ``None`` when it holds,
    the violation dict of the first law it finds broken, or a skip
    reason as a ``str``.  The registered property parses its payload
    once, runs the law, and files its outcome as that payload's report.
    """
    def register(law):
        @wraps(law)
        def prop(payload: dict) -> CheckReport:
            outcome = law(_poset_of(payload), payload)
            if outcome is None:
                return passed(name, payload)
            if isinstance(outcome, str):
                return skipped(name, payload, outcome)
            return failed(name, payload, **outcome)
        PROPERTIES[name] = prop
        return prop
    return register


@_property("topology-round-trip")
def prop_topology_round_trip(poset: FinitePoset, payload: dict) -> dict | None:
    """Opens determine the order: rebuilding from the topology is exact."""
    recovered = poset_of_topology(poset.n, open_sets(poset), poset.labels)
    if recovered != poset:
        return {"law": "recovers-order",
                "recovered": document_of_poset(recovered).to_payload()}
    return None


@_property("embedding-theorem")
def prop_embedding_theorem(poset: FinitePoset, payload: dict) -> dict | None:
    """The laws of ``check_embedding_theorem`` on the built powerdomain."""
    return check_embedding_theorem(build(poset))


@_property("powerdomain-dimension")
def prop_powerdomain_dimension(poset: FinitePoset, payload: dict) -> dict | None:
    """dim of the powerdomain is n - 1.

    Measured over the built order's covers, not the grading that
    ``powerdomain_dimension`` reads.  The paper's "at least dim of the
    base, with equality exactly for chains" follows: a chain of the base
    has at most n elements, so its dimension is at most n - 1, and
    ``is_chain`` is the test that it equals n - 1.
    """
    pd_dim = dimension(build(poset).order)
    if pd_dim != poset.n - 1:
        return {"law": "n-minus-one", "got": pd_dim}
    return None


@_property("phi-onto-iff-chain")
def prop_phi_onto_iff_chain(poset: FinitePoset, payload: dict) -> dict | None:
    """The principal-point map is onto exactly over a linear base, and
    then an order-embedding, so an isomorphism: no search is run."""
    space = build(poset)
    onto = is_phi_surjective(space)
    if onto != is_chain(poset):
        return {"law": "onto-iff-chain", "onto": onto}
    if onto and not is_order_embedding(poset, space.order, space.phi_index):
        return {"law": "onto-gives-isomorphism"}
    return None


@_property("zariski-equals-vietoris")
def prop_zariski_equals_vietoris(poset: FinitePoset, payload: dict) -> dict | None:
    """Containment opens and order-principal opens agree on every open.

    The capacity is resolved once, for both builds.  The hat space's
    points are the opens of the base, as a build derives them, so no
    open is validated again; each pair of opens is compared as point
    masks.
    """
    capacity = resolve_capacity(None)
    space = build(poset, capacity)
    hat = hat_powerdomain(poset, capacity)
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


def _endo_images(poset: FinitePoset, payload: dict, capacity: int) -> list[tuple[int, ...]]:
    """The images of the endomaps to pair up, distinct, in first-drawn
    order: every endomap up to three elements, else ``SAMPLED_MAPS``
    draws on one rule, as many ``random_monotone_map`` calls would draw
    them."""
    if poset.n <= 3:
        return list(anchored_extensions(poset, {}, poset, capacity))
    rng = random.Random(_instance_seed(payload))
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
def prop_functor_laws(poset: FinitePoset, payload: dict) -> dict | None:
    """Composition and identity survive the powerdomain construction.

    The capacity is resolved once and the space built once; every lift
    is made on that space, with no lift cache.  The identity law is
    checked once, on the one poset every map lives on, even when no map
    was drawn.  Each image ``_endo_images`` returns is lifted once, and
    each distinct base composite once, keyed by its image, since many
    pairs share one; a composite equal to a map reuses that map's lift.
    No map or lift is validated: the maps are monotone by construction,
    and these laws are what certify the lifts.  Per map ``f``, the
    lifted composites of ``f`` with every map and the composites of
    their lifts are gathered with one ``itemgetter`` each and compared
    as two lists, and at the end every lift is checked to go from the
    space's order to itself.  Only when something differs are the pairs
    scanned in order, by ``_composition_violation``, so a composition
    failure still names the images of its first failing pair as ``f`` and
    ``g``; an identity failure fails every pair, so it names none.
    """
    capacity = resolve_capacity(None)
    images = _endo_images(poset, payload, capacity)
    space = build(poset, capacity)
    violation = _identity_violation(space)
    if violation is not None:
        return violation
    lifts = {image: _lift(space, space, image) for image in images}
    lifted_images = [lifts[image].image for image in images]
    order = space.order
    for f, lifted_f in zip(images, lifted_images):
        composites = list(map(_gatherer(f), images))
        for composite in composites:
            if composite not in lifts:
                lifts[composite] = _lift(space, space, composite)
        if [lifts[c].image for c in composites] != list(
                map(_gatherer(lifted_f), lifted_images)):
            break
    else:
        if all(lift.source is order and lift.target is order for lift in lifts.values()):
            return None
    # Something differs: every lift the scan reads up to its first
    # failing pair has been made.
    for f in images:
        for g in images:
            violation = _composition_violation(lifts[f], lifts[g], lifts[gather(g, f)])
            if violation is not None:
                return {**violation, "f": list(f), "g": list(g)}
    return None


@_property("extension-minimality")
def prop_extension_minimality(poset: FinitePoset, payload: dict) -> dict | str | None:
    """The induced powerdomain map is least among extensions.

    Exercised against every monotone map into the two-element chain
    (the Sierpinski-valued maps).  Those are the indicators of the
    down-sets of the base, so they are read off the points of its built
    powerdomain, plus the empty set, as image tuples in sorted order,
    the order of ``all_monotone_images``.  ``check_minimality`` judges
    each with one mask comparison, and lists its extensions on masks,
    as down-sets of the points between the anchors' bounds, only to
    name a failure or when they may be more than the capacity; more
    than the capacity is reported as skipped, not guessed, and so is a
    powerdomain over the default capacity.  A failure names the image of
    the first failing map as ``map``.  Each induced map is the sup
    extension of ``phi`` after the map, whose least-ness
    ``check_sigma_theorem`` certifies per point with no enumeration;
    this property still bounds the zero sets it could list, so the
    5-element antichain is over its budget.
    """
    try:
        for image in _chain_images(build(poset)):
            violation = check_minimality(
                _made(poset, CHAIN2, image), MINIMALITY_CAPACITY)
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
def prop_lift_round_trip(poset: FinitePoset, payload: dict) -> dict | None:
    """Lifting inverts inducing on a relabeled copy of the base.

    The capacity is resolved once, for both builds, and the rotation is
    lifted on the two spaces.
    """
    capacity = resolve_capacity(None)
    rotation = tuple((i + 1) % poset.n for i in range(poset.n))
    other = relabel(poset, rotation)
    sigma = _made(poset, other, rotation)
    space, other_space = build(poset, capacity), build(other, capacity)
    induced_iso = _lift(space, other_space, rotation)
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
def prop_sup_extension(poset: FinitePoset, payload: dict) -> dict | str | None:
    """Sup-extension laws for the identity map, where sups allow it."""
    try:
        base_map = identity(poset)
        return check_sigma_theorem(base_map, lambda_sharp(base_map))
    except SigmaUndefinedError as exc:
        return f"not sup-complete: {exc}"
    except CapacityError as exc:
        return f"enumeration over budget: {exc}"


@_property("sup-extension-of-embedding")
def prop_sup_extension_of_embedding(
    poset: FinitePoset, payload: dict
) -> dict | str | None:
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
        space = build(poset)
        into_points = _made(poset, space.order, space.phi_index)
        sharp = lambda_sharp(into_points)
        if sharp.image != tuple(range(space.order.n)):
            return {"law": "sharp-is-identity", "got": list(sharp.image)}
        return check_sigma_theorem(into_points, sharp)
    except SigmaUndefinedError as exc:
        return {"law": "sharp-is-defined", "member_mask": exc.member_mask}
    except CapacityError as exc:
        return f"enumeration over budget: {exc}"


@_property("fixture-expectations")
def prop_fixture_expectations(poset: FinitePoset, payload: dict) -> dict | str | None:
    """Pinned powerdomain facts recorded in a document's expect block,
    which the filer has already validated."""
    expect = payload.get("expect")
    if expect is None:
        return "no expectations recorded"
    space = build(poset)
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


def _per_poset(payload: dict) -> list[CheckReport]:
    """Every per-poset property on one payload, in registry order."""
    return [PROPERTIES[name](payload) for name in PER_POSET_PROPERTIES]


def run_suite(scope: str) -> list[CheckReport]:
    """Run the named scope and return its reports in canonical order.

    Scopes: ``exhaustive-N`` (all labeled posets on N elements),
    ``fixtures`` (each shipped document through every per-poset property
    and ``fixture-expectations``),
    and ``random:COUNT:SIZE:SEED`` (reproducible random posets).
    """
    reports: list[CheckReport] = []
    if scope.startswith("exhaustive-"):
        try:
            n = int(scope.split("-", 1)[1])
        except ValueError as exc:
            raise RangeError(f"bad scope {scope!r}") from exc
        for poset in all_posets(n):
            reports += _per_poset(document_of_poset(poset).to_payload())
        return reports
    if scope == "fixtures":
        for payload in FIXTURE_DOCS:
            reports += _per_poset(payload)
            reports.append(PROPERTIES["fixture-expectations"](payload))
        return reports
    if scope.startswith("random:"):
        parts = scope.split(":")
        if len(parts) != 4:
            raise RangeError(f"bad scope {scope!r}; want random:COUNT:SIZE:SEED")
        try:
            count, size, seed = (int(p) for p in parts[1:])
        except ValueError as exc:
            raise RangeError(f"bad scope {scope!r}") from exc
        if count < 0 or size < 1:
            raise RangeError(f"bad scope {scope!r}; want COUNT >= 0 and SIZE >= 1")
        for k in range(count):
            poset = random_poset(1 + (k % size), seed + k)
            reports += _per_poset(document_of_poset(poset).to_payload())
        return reports
    raise RangeError(f"unknown scope {scope!r}")


def replay(report: CheckReport) -> CheckReport:
    """Re-run the property that produced a failing report on its witness."""
    if report.witness is None or "instance" not in report.witness:
        raise RangeError("the report carries no replayable witness")
    if report.property not in PROPERTIES:
        raise RangeError(f"no registered property {report.property!r} to replay")
    return PROPERTIES[report.property](report.witness["instance"])


def check_payload(payload: dict, suite: str) -> list[CheckReport]:
    """Run one suite group against a single document payload.

    The payload is validated first, so a malformed one raises
    DocumentError before any property runs.
    """
    if suite not in SUITE_GROUPS:
        raise RangeError(f"unknown suite {suite!r}")
    names = list(SUITE_GROUPS[suite])
    if document_from_payload(payload).expect is not None:
        names.append("fixture-expectations")
    return [PROPERTIES[name](payload) for name in names]
