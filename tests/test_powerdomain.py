"""The space of nonempty down-sets: points, basis, embedding, iteration."""

import functools
import random

import pytest
from hypothesis import given

from smyth import (
    CapacityError,
    MonotoneMap,
    NotOpenError,
    PowerdomainSpace,
    RangeError,
    SmythError,
    basic_open,
    build,
    check_embedding_theorem,
    dimension,
    down_closure,
    enumerate_down_sets,
    hat_powerdomain,
    inverse_powerdomain,
    is_chain,
    is_phi_surjective,
    iterate_sizes,
    order_dual,
    phi,
    powerdomain_dimension,
    vietoris_open,
)
from smyth import maps, powerdomain
from smyth.generators import all_posets, random_poset
from smyth.poset import FinitePoset, iter_bits, linear_extension, relabel, resolve_capacity

from conftest import (
    antichain,
    basic_open_by_scan,
    boolean_lattice,
    chain,
    embedding_theorem_by_scan,
    irreducible_down_sets_by_scan,
    posets,
)


def test_points_of_vee(vee):
    space = build(vee)
    assert space.base == vee
    assert space.points == (0b001, 0b010, 0b011, 0b111)
    assert space.order.n == 4


def test_point_labels(vee):
    space = build(vee)
    assert [space.point_label(i) for i in range(4)] == [
        "{a1}",
        "{a2}",
        "{a1,a2}",
        "{a1,a2,b}",
    ]


def containment_rows(points):
    """Up rows of mask containment by the N^2 pair scan.  The slow oracle."""
    rows = [0] * len(points)
    for i, small in enumerate(points):
        for j, big in enumerate(points):
            if small & ~big == 0:
                rows[i] |= 1 << j
    return rows


def assert_assembled_order(space):
    """Rows against the containment scan; down rows as their transpose."""
    assert list(space.order.up) == containment_rows(space.points)
    transpose = [0] * len(space.points)
    for i, row in enumerate(space.order.up):
        for j in iter_bits(row):
            transpose[j] |= 1 << i
    assert list(space.order.down) == transpose
    for x in range(space.base.n):
        assert space.points[space.phi_index[x]] == space.base.down[x]


@given(posets())
def test_order_is_inclusion(poset):
    for builder in (build, hat_powerdomain, inverse_powerdomain):
        space = builder(poset)
        assert_assembled_order(space)
        for i, small in enumerate(space.points):
            for j, big in enumerate(space.points):
                assert space.order.leq(i, j) == (small & ~big == 0)


def test_order_is_inclusion_on_large_base():
    poset = random_poset(13, 28)
    space = build(poset)
    assert len(space.points) >= 1000
    assert_assembled_order(space)


SMALL_BUILDERS = (build, hat_powerdomain, inverse_powerdomain)


@pytest.fixture(scope="module")
def small_spaces():
    """Every labeled poset with up to 5 elements, with its space under
    each of ``SMALL_BUILDERS``, built once for the module."""
    return [(base, [builder(base) for builder in SMALL_BUILDERS])
            for n in range(1, 6) for base in all_posets(n)]


def test_order_is_inclusion_on_every_small_poset(small_spaces):
    for _, spaces in small_spaces:
        for space in spaces:
            assert_assembled_order(space)


def reversed_chain(n):
    """The chain ``n-1 < ... < 0``: index order is no linear extension."""
    return FinitePoset.from_cover_relations(n, [(i + 1, i) for i in range(n - 1)])


@pytest.mark.parametrize("n", [8, 9, 16, 17])
def test_order_is_inclusion_off_a_linear_extension(n):
    # the rows step from each point to a neighbour found by _minimal,
    # which takes more than one step on a base not indexed along a
    # linear extension: the reversed chain, the zigzag chain
    # n//2 < 0 < n//2 + 1 < 1 < ..., which takes its elements from the
    # two halves in turn, and the shuffled relabel
    zigzag = [x for pair in zip(range(n // 2, n), range(n // 2)) for x in pair]
    zigzag += range(2 * (n // 2), n)
    shuffled = tuple(random.Random(n).sample(range(n), n))
    bases = [
        reversed_chain(n),
        FinitePoset.from_cover_relations(n, zip(zigzag, zigzag[1:])),
        random_poset(n, 1000 + n),
        relabel(random_poset(n, 1000 + n), shuffled),
    ]
    for poset in bases:
        for builder in (build, hat_powerdomain, inverse_powerdomain):
            space = builder(poset, capacity=5000)
            assert_assembled_order(space)


def test_empty_point_of_hat_space():
    for poset in (reversed_chain(9), antichain(3), random_poset(17, 7)):
        space = hat_powerdomain(poset, capacity=5000)
        every = (1 << len(space.points)) - 1
        assert space.points[0] == 0
        assert space.order.up[0] == every
        assert space.order.down[0] == 1
        assert space.order.down[-1] == every


def test_phi_points(vee):
    space = build(vee)
    assert phi(space, 0) == 0
    assert phi(space, 1) == 1
    assert phi(space, 2) == 3
    assert space.points[phi(space, 2)] == 0b111
    assert tuple(phi(space, x) for x in range(3)) == space.phi_index
    with pytest.raises(RangeError):
        phi(space, 3)


@given(posets(max_n=5))
def test_phi_is_order_embedding(poset):
    space = build(poset)
    for x in range(poset.n):
        assert space.points[phi(space, x)] == down_closure(poset, 1 << x)
        for y in range(poset.n):
            fx, fy = space.phi_index[x], space.phi_index[y]
            assert poset.leq(x, y) == space.order.leq(fx, fy)


@given(posets(max_n=5))
def test_point_count_matches_down_set_oracle(poset):
    space = build(poset)
    assert space.points == enumerate_down_sets(poset, include_empty=False)


def test_basic_open_vee(vee):
    space = build(vee)
    assert basic_open(space, 0b011) == {0, 1, 2}
    assert basic_open(space, 0b001) == {0}
    assert basic_open(space, 0b111) == {0, 1, 2, 3}
    assert basic_open(space, 0) == set()
    with pytest.raises(NotOpenError):
        basic_open(space, 0b100)


@given(posets(max_n=5))
def test_basis_intersection_law(poset):
    space = build(poset)
    opens = enumerate_down_sets(poset)
    for a in opens:
        for b in opens:
            assert basic_open(space, a) & basic_open(space, b) == basic_open(
                space, a & b
            )


@given(posets(max_n=5))
def test_vietoris_route_agrees(poset):
    space = build(poset)
    for omega in enumerate_down_sets(poset):
        assert vietoris_open(space, omega) == basic_open(space, omega)


@given(posets(max_n=5))
def test_phi_pullback_of_basic_open(poset):
    # membership of a principal point in U(omega) means membership in omega
    space = build(poset)
    for omega in enumerate_down_sets(poset):
        members = basic_open(space, omega)
        pulled = [x for x in range(poset.n) if space.phi_index[x] in members]
        assert pulled == [x for x in range(poset.n) if omega >> x & 1]


def test_unique_maximal_point(vee):
    space = build(vee)
    top = [i for i in range(4) if space.order.up[i] == 1 << i]
    assert top == [3]
    assert space.points[3] == vee.full


def test_hat_powerdomain(vee):
    space = hat_powerdomain(vee)
    assert space.points == (0b000, 0b001, 0b010, 0b011, 0b111)
    assert basic_open(space, 0) == {0}
    # the empty point sits below everything
    assert all(space.order.leq(0, j) for j in range(space.order.n))
    # and the rest is the plain powerdomain, point for point
    for poset in (p for n in range(1, 5) for p in all_posets(n)):
        assert hat_powerdomain(poset).points[1:] == build(poset).points


def test_inverse_powerdomain(vee):
    space = inverse_powerdomain(vee)
    assert space.base == order_dual(vee)
    # points are the nonempty up-sets of the original order
    assert space.points == (0b100, 0b101, 0b110, 0b111)


@given(posets(max_n=5))
def test_inverse_points_are_up_sets(poset):
    space = inverse_powerdomain(poset)
    dual = order_dual(poset)
    assert space.points == enumerate_down_sets(dual, include_empty=False)


def test_dimension_examples(vee):
    assert powerdomain_dimension(build(vee)) == 2
    assert powerdomain_dimension(build(chain(4))) == 3
    assert powerdomain_dimension(build(antichain(4))) == 3


@given(posets())
def test_dimension_law(poset):
    space = build(poset)
    pd = powerdomain_dimension(space)
    assert pd == poset.n - 1
    assert pd >= dimension(poset)
    assert (pd == dimension(poset)) == is_chain(poset)


def test_dimension_is_the_longest_cover_chain(small_spaces):
    """The grading against the longest chain over the order's covers,
    on every labeled poset with up to 5 elements and 20 seeded random
    ones with 6 to 12, under each builder; the hat space gives n."""
    rng = random.Random(27)
    cases = list(small_spaces)
    for seed in range(20):
        base = random_poset(rng.randint(6, 12), seed)
        cases.append((base, [builder(base) for builder in SMALL_BUILDERS]))
    for base, spaces in cases:
        for space, expected in zip(spaces, (base.n - 1, base.n, base.n - 1)):
            assert powerdomain_dimension(space) == dimension(space.order) == expected


@given(posets())
def test_phi_surjective_iff_chain(poset):
    assert is_phi_surjective(build(poset)) == is_chain(poset)


def test_iterate_sizes(vee):
    assert iterate_sizes(vee, 2) == (3, 4, 5)
    assert iterate_sizes(antichain(2), 2) == (2, 3, 4)
    assert iterate_sizes(chain(1), 3) == (1, 1, 1, 1)


def test_iterate_full_antichain3():
    assert iterate_sizes(antichain(3), 3) == (3, 7, 18, 81)


def test_iterate_truncation():
    # fewer than k + 1 sizes: the fourth stage is over the capacity
    result = iterate_sizes(antichain(3), 3, capacity=80)
    assert len(result) == 3
    assert result == (3, 7, 18)
    # a stage landing exactly on the capacity still completes
    at_cap = iterate_sizes(antichain(3), 3, capacity=18)
    assert len(at_cap) == 3
    assert at_cap == (3, 7, 18)


def test_iterate_counts_on_past_growth_of_one(monkeypatch, vee):
    """On every labeled poset with n <= 4, five stages match five built
    ones under a capacity that cuts some short; 60 of the 219 posets on
    4 elements grow by at most one (24 chains, 36 with one incomparable
    pair).  The vee is built once for 300 stages."""
    short = 0
    for base in (p for n in range(1, 5) for p in all_posets(n)):
        built, current = [base.n], base
        while len(built) < 6:
            try:
                current = build(current, 300).order
            except CapacityError:
                break
            built.append(current.n)
        assert iterate_sizes(base, 5, capacity=300) == tuple(built), base
        short += base.n == 4 and built[1] - built[0] <= 1
    assert short == 60
    builds = []
    monkeypatch.setattr(powerdomain, "build", lambda base, capacity=None: (
        builds.append(base.n) or build(base, capacity)))
    assert iterate_sizes(vee, 300) == tuple(range(3, 304))
    assert builds == [3]


def test_iterate_zero_rounds(vee):
    result = iterate_sizes(vee, 0)
    assert result == (3,)
    assert len(result) == 1


def test_build_capacity(vee):
    with pytest.raises(CapacityError):
        build(vee, capacity=3)
    assert build(vee, capacity=4).order.n == 4


def test_boolean_lattice_point_count():
    space = build(boolean_lattice(4))
    assert space.order.n == 167


@given(posets(max_n=5))
def test_embedding_theorem_holds(poset):
    assert check_embedding_theorem(build(poset)) is None


def test_embedding_theorem_enumerates_no_opens(monkeypatch, vee):
    # the opens are read off the points: vee's four points fit a capacity
    # of 4, though its five opens do not
    monkeypatch.setenv("SPECTRAL_CAPACITY", "4")
    assert check_embedding_theorem(build(vee)) is None


def test_join_irreducible_points_match_the_scan():
    """On every labeled poset with up to 4 elements, the points with at
    most one lower cover, which ``principal-iff-join-irreducible``
    compares with ``phi_index``, are the down-sets the definitional scan
    finds irreducible."""
    for n in range(1, 5):
        for poset in all_posets(n):
            space = build(poset)
            by_covers = tuple(
                mask for mask, covers in zip(space.points, space.order.lower_covers)
                if covers.bit_count() <= 1
            )
            assert by_covers == irreducible_down_sets_by_scan(poset)
            assert sorted(by_covers) == sorted(space.points[i] for i in space.phi_index)


def first_wrong_pair(space):
    """The row-major first ``(i, j)`` where the order and containment
    disagree.  The pair-scan oracle of ``order-is-containment``."""
    for i, small in enumerate(space.points):
        for j, big in enumerate(space.points):
            if space.order.leq(i, j) != (small & ~big == 0):
                return i, j
    return None


@pytest.mark.parametrize("base", [antichain(3), boolean_lattice(2), random_poset(6, 3)])
def test_embedding_theorem_catches_a_wrong_order(base):
    assert not is_chain(base)
    space = build(base)
    broken = PowerdomainSpace(space.base, space.points, chain(len(space.points)),
                              space.phi_index)
    witness = check_embedding_theorem(broken)
    assert witness["law"] == "order-is-containment"
    assert (witness["left"], witness["right"]) == first_wrong_pair(broken)


def test_embedding_theorem_wrong_order_on_vee(vee):
    # points {a1}, {a2}, {a1,a2}, {a1,a2,b}: the chain puts {a1} below {a2}
    space = build(vee)
    broken = PowerdomainSpace(space.base, space.points, chain(4), space.phi_index)
    witness = check_embedding_theorem(broken)
    assert (witness["law"], witness["left"], witness["right"]) == (
        "order-is-containment", 0, 1)


def test_embedding_theorem_density_fails_on_hat_space(vee):
    # the empty point is alone in the basic open of the empty open, and it
    # is no principal point
    witness = check_embedding_theorem(hat_powerdomain(vee))
    assert (witness["law"], witness["open"]) == ("density", 0)


def embedding_mutants(space, rng):
    """``space``, then with seeded wrong ``phi_index`` tuples (reversed,
    rotated, shuffled, injective, with repeats), then rebuilt on wrong
    point lists (one end dropped, two points swapped, an empty point
    added at either end, the last point repeated)."""
    phi, points, size = space.phi_index, space.points, len(space.points)
    yield space
    wrongs = [phi[::-1], phi[1:] + phi[:1]]
    for _ in range(4):
        wrongs.append(tuple(rng.sample(phi, len(phi))))
        wrongs.append(tuple(rng.sample(range(size), len(phi))))
        wrongs.append(tuple(rng.randrange(size) for _ in phi))
    for wrong in wrongs:
        yield PowerdomainSpace(space.base, points, space.order, wrong)
    swapped = list(points)
    i, j = rng.sample(range(size), 2) if size > 1 else (0, 0)
    swapped[i], swapped[j] = swapped[j], swapped[i]
    for wrong in (points[:-1], points[1:], tuple(swapped), (0,) + points,
                  points + (0,), points + points[-1:]):
        if wrong:
            yield powerdomain._assemble(space.base, wrong)


def outcome(check, space):
    """What ``check`` returns on ``space``, or the type it raises."""
    try:
        return check(space)
    except Exception as exc:
        return type(exc)


def test_embedding_theorem_matches_the_point_scan():
    """``basic-open-pullback`` and ``density``, read off the columns,
    give the per-point scan's verdict and witness on every labeled
    poset with n <= 4 and on seeded 5- to 8-element ones, built plain
    and hatted, under wrong principal maps and wrong point lists; no
    wrong space makes either raise."""
    rng = random.Random(7)
    bases = [p for n in range(1, 5) for p in all_posets(n)]
    bases += [random_poset(rng.randint(5, 8), seed) for seed in range(60)]
    laws = set()
    for base in bases:
        for builder in (build, hat_powerdomain):
            for space in embedding_mutants(builder(base), rng):
                expected = outcome(embedding_theorem_by_scan, space)
                assert outcome(check_embedding_theorem, space) == expected
                assert expected is None or isinstance(expected, dict)
                if isinstance(expected, dict):
                    laws.add(expected["law"])
    assert {"basic-open-pullback", "density"} <= laws


def test_embedding_theorem_names_a_law_on_an_empty_point_appended(vee):
    # the down row of the empty point needs the row of {a1}, made after
    # it when the empty point comes last: the rows cannot be read
    space = build(vee)
    wrong = powerdomain._assemble(vee, space.points + (0,))
    assert check_embedding_theorem(wrong) == {"law": "order-is-containment", "missing": 1}


def test_embedding_theorem_names_a_law_on_a_principal_point_past_the_end(vee):
    space = build(vee)
    wrong = PowerdomainSpace(vee, space.points, space.order,
                             space.phi_index[:-1] + (len(space.points),))
    assert check_embedding_theorem(wrong) == {"law": "order-embedding"}


def test_embedding_theorem_reads_no_basic_open(monkeypatch, vee):
    """The embedding laws read each basic open off the certified down
    rows, so ``basic_open`` is never called, and the column fold runs
    once per point, for the down row it certifies."""
    calls = []
    fold = powerdomain._points_inside

    def counted(space, omega):
        calls.append(omega)
        return fold(space, omega)

    monkeypatch.setattr(powerdomain, "basic_open", counted)
    monkeypatch.setattr(powerdomain, "_points_inside", counted)
    for space in (build(vee), hat_powerdomain(vee), build(random_poset(7, 5))):
        calls.clear()
        check_embedding_theorem(space)
        assert calls == list(space.points)


def test_embedding_theorem_holds_on_the_12_element_antichain():
    assert check_embedding_theorem(build(antichain(12))) is None


def test_build_is_memoized(vee):
    assert build(vee) is build(vee)


BUILDERS = (build, hat_powerdomain, inverse_powerdomain)


def index_of_points(space):
    """Each point's mask to its index, as ``point_index`` holds it."""
    return {mask: i for i, mask in enumerate(space.points)}


@pytest.fixture
def fresh_builds(monkeypatch):
    """A construction cache of the test's own, so its spaces are new."""
    monkeypatch.setattr(powerdomain, "_build",
                        functools.lru_cache(maxsize=None)(powerdomain._build.__wrapped__))


def test_basic_open_matches_the_scan():
    """Every labeled poset with up to 4 elements, under each builder:
    the column fold keeps, for every open, exactly the points that the
    definitional scan keeps."""
    for n in range(1, 5):
        for base in all_posets(n):
            for builder in BUILDERS:
                space = builder(base)
                for omega in enumerate_down_sets(space.base, True):
                    assert basic_open(space, omega) == basic_open_by_scan(space, omega)


def test_phi_index_matches_the_point_index():
    """Every labeled poset with up to 5 elements, under each builder: the
    binary search on canonical order finds each principal down-set at
    the index the mask-to-index dict gives it."""
    for n in range(1, 6):
        for base in all_posets(n):
            for builder in BUILDERS:
                space = builder(base)
                index = index_of_points(space)
                assert space.phi_index == tuple(index[m] for m in space.base.down)


@pytest.mark.parametrize("builder", BUILDERS)
def test_build_makes_no_point_index(fresh_builds, builder):
    """A build, and reading its points, ``phi_index``, ``leq`` and
    dimension, look up no point by its mask."""
    for base in (antichain(1), boolean_lattice(2), random_poset(9, 2024), antichain(12)):
        space = builder(base)
        assert space.points[space.phi_index[0]] == space.base.down[0]
        assert space.order.leq(0, len(space.points) - 1)
        assert powerdomain_dimension(space) == space.base.n - (builder is not hat_powerdomain)
        assert "point_index" not in vars(space)


@pytest.mark.parametrize("builder", BUILDERS)
def test_build_reads_no_covers_of_its_base(fresh_builds, builder):
    """A build orders its enumeration by the base's down rows alone, so
    a fresh base keeps its extension and no covers."""
    space = builder(random_poset(11, 5))
    kept = vars(space.base)
    assert "_linear_extension" in kept
    assert "upper_covers" not in kept and "lower_covers" not in kept


def test_point_index_is_made_on_first_lookup(fresh_builds, vee):
    """The first lift or ``vietoris_open`` makes the index of each space
    it looks points up in, and it is each point's mask to its index."""
    f = MonotoneMap(vee, chain(2), (0, 0, 1))
    maps._powerdomain_map.__wrapped__(f, resolve_capacity(None))
    for space in (build(vee), build(chain(2))):
        assert vars(space)["point_index"] == index_of_points(space)
    space = hat_powerdomain(vee)
    assert "point_index" not in vars(space)
    assert vietoris_open(space, 0b011) == {0, 1, 2, 3}
    assert vars(space)["point_index"] == index_of_points(space)


def test_parents_remove_one_maximal_member():
    """On every space of a labeled poset with up to 4 elements, each
    point's parent is a point (or the empty set, for a one-member point)
    that differs from it by one maximal member, and comes before it."""
    for n in range(1, 5):
        for poset in all_posets(n):
            space = build(poset)
            parents, members = space._parents
            assert len(parents) == len(members) == len(space.points)
            for i, point in enumerate(space.points):
                x, parent = members[i], parents[i] - 1
                assert 0 <= x < n and point >> x & 1
                assert poset.up[x] & point == 1 << x  # x is maximal in the point
                assert -1 <= parent < i
                rest = space.points[parent] if parent >= 0 else 0
                assert rest == point ^ (1 << x)
                assert (parent >= 0) == (point != 1 << x)


def assert_lazy_order_is_eager(space, rng):
    """The space's order against ``FinitePoset`` on ``_inclusion_rows``:
    ``leq`` first, then the rows it builds on first read, the extension
    and covers read off them, and equality and hash both ways.  Both
    extensions come from one rule, so the order's must also be index
    order, which canonical order extends."""
    order = space.order
    eager = FinitePoset(len(space.points), *powerdomain._inclusion_rows(space.base, space.points))
    n = order.n
    if n <= 64:
        pairs = [(i, j) for i in range(n) for j in range(n)]
    else:
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(2000)]
    assert [order.leq(i, j) for i, j in pairs] == [eager.leq(i, j) for i, j in pairs]
    assert (order.up, order.down) == (eager.up, eager.down)
    assert linear_extension(order) == linear_extension(eager) == tuple(range(n))
    assert order.upper_covers == eager.upper_covers
    assert order.lower_covers == eager.lower_covers
    assert order == eager and eager == order
    assert hash(order) == hash(eager)


def test_lazy_order_matches_eager_rows():
    """Every labeled poset with up to 5 elements, and 40 seeded random
    ones with 6 to 12, under each builder."""
    rng = random.Random(25)
    bases = [p for n in range(1, 6) for p in all_posets(n)]
    bases += [random_poset(rng.randint(6, 12), seed) for seed in range(40)]
    for base in bases:
        for builder in (build, hat_powerdomain, inverse_powerdomain):
            assert_lazy_order_is_eager(builder(base), rng)


@pytest.mark.parametrize("base, include_empty, side, diagonal", [
    pytest.param(base, include_empty, side, diagonal, id=f"{prefix}{row}-{kind}")
    # the 10-element antichain's 1023 points put the last row past the
    # 69 points of the largest pinned space
    for prefix, base in (("", random_poset(7, 5)), ("antichain10-", antichain(10)))
    for row, side, diagonal in (
        ("up-row", 0, False), ("down-row", 1, False), ("up-diagonal", 0, True))
    for kind, include_empty in (("plain", False), ("hat", True))
])
def test_corrupt_rows_raise_at_first_read(base, include_empty, side, diagonal):
    # drop one bit of the first up row or the last down row: its own
    # bit, or the highest other one.  The constructor rejects the rows;
    # stored on a built order, they are read with no check, and the
    # embedding laws name the pair they misread.
    points = enumerate_down_sets(base, include_empty)
    rows = [list(r) for r in powerdomain._inclusion_rows(base, points)]
    top = len(points) - 1
    k = 0 if side == 0 else top
    bit = k if diagonal else (rows[side][k] ^ 1 << k).bit_length() - 1
    rows[side][k] ^= 1 << bit
    corrupt = tuple(rows[0]), tuple(rows[1])
    with pytest.raises(SmythError):
        FinitePoset(len(points), *corrupt)
    space = powerdomain._build.__wrapped__(base, include_empty, 1 << 20)
    assert space.points == points
    object.__setattr__(space.order, "up", corrupt[0])
    object.__setattr__(space.order, "down", corrupt[1])
    witness = {(0, False): (0, top), (1, False): (top - 1, top), (0, True): (0, 0)}
    left, right = witness[side, diagonal]
    assert check_embedding_theorem(space) == {
        "law": "order-is-containment", "left": left, "right": right}
