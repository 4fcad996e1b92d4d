"""Core order structure: construction, closures, sups, enumeration."""

import random
import re
from collections import defaultdict
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from smyth import (
    CapacityError,
    CycleError,
    FinitePoset,
    MonotoneMap,
    NotAnOrderError,
    RangeError,
    SmythError,
    build,
    dimension,
    down_closure,
    enumerate_down_sets,
    find_isomorphism,
    hat_powerdomain,
    inverse_powerdomain,
    is_chain,
    is_down_set,
    iterate_sizes,
    linear_extension,
    order_dual,
    poset_of_topology,
    random_poset,
    sup,
)
from smyth.poset import (
    CAPACITY_ENV_VAR,
    DEFAULT_CAPACITY,
    _down_sets_by_extension,
    _minimal,
    _signatures,
    _sups,
    check_subset,
    gather,
    heights,
    is_order_embedding,
    iter_bits,
    mask_of,
    relabel,
    resolve_capacity,
)

from smyth.generators import all_posets

from conftest import (
    _sup_by_scan,
    antichain,
    binary_sup,
    canonical_sort,
    chain,
    closed_rows_by_pairs,
    cover_pairs_by_definition,
    diamond_poset,
    down_sets_by_filter,
    heights_by_pairs,
    induced,
    is_order_embedding_by_pairs,
    isomorphisms_by_permutation,
    is_up_set,
    linear_extension_by_scan,
    lower_covers_by_definition,
    order_transpose,
    relabeled_rows_by_pairs,
    posets,
    subsets,
    up_closure,
    vee_poset,
)


def test_cover_construction(vee):
    assert vee.n == 3
    assert vee.labels == ("a1", "a2", "b")
    assert vee.cover_pairs() == ((0, 2), (1, 2))
    assert vee.leq(0, 2) and vee.leq(1, 2)
    assert not vee.leq(0, 1) and not vee.leq(2, 0)
    assert vee.leq(0, 0)


def test_transitive_closure_of_covers():
    p = chain(4)
    assert p.leq(0, 3)
    assert p.down[3] == 0b1111
    assert p.up[0] == 0b1111


def test_cycle_rejected():
    with pytest.raises(CycleError):
        FinitePoset.from_cover_relations(3, [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(CycleError):
        FinitePoset.from_cover_relations(2, [(0, 1), (1, 0)])


def test_bad_cover_index():
    with pytest.raises(RangeError):
        FinitePoset.from_cover_relations(2, [(0, 2)])
    with pytest.raises(RangeError):
        FinitePoset.from_cover_relations(0, [])


def test_direct_construction_validation():
    with pytest.raises(RangeError):
        FinitePoset(2, up=(0b10, 0b10), down=(0b01, 0b11))  # 0 not reflexive
    with pytest.raises(RangeError):
        FinitePoset(2, up=(0b01,), down=(0b01,))  # row count mismatch
    outside = r"row 1 must be an int in range\(0, 4\), got"
    with pytest.raises(RangeError, match=outside):
        FinitePoset(2, up=(0b01, 0b110), down=(0b01, 0b10))
    with pytest.raises(RangeError, match=outside):
        FinitePoset(2, up=(0b01, 0b10), down=(0b01, 0b110))
    with pytest.raises(RangeError, match=outside):
        FinitePoset(2, up=(0b01, -2), down=(0b01, 0b10))
    with pytest.raises(RangeError, match=outside):
        FinitePoset(2, up=(0b01, 0b10), down=(0b01, -0b10))
    with pytest.raises(ValueError):
        # up says 1 <= 0 but down[0] does not list 1
        FinitePoset(2, up=(0b01, 0b11), down=(0b01, 0b10))
    with pytest.raises(ValueError):
        # 0 <= 1 <= 2 without 0 <= 2
        FinitePoset(
            3,
            up=(0b011, 0b110, 0b100),
            down=(0b001, 0b011, 0b110),
        )
    with pytest.raises(ValueError):
        # up is the antichain but down says 0 <= 1
        FinitePoset(2, up=(0b01, 0b10), down=(0b01, 0b11))


@pytest.mark.parametrize("make", [
    lambda: FinitePoset(2, ("a", 2), (1, 3)),
    lambda: FinitePoset(2.0, (3, 2), (1, 3)),
    lambda: FinitePoset(1, (True,), (True,)),
    lambda: FinitePoset(2, (3, 2), (1, 3), labels=(1, 2)),
    lambda: FinitePoset.from_cover_relations(2.0, [(0, 1)]),
    lambda: FinitePoset.from_cover_relations(2, [("0", 1)]),
    lambda: MonotoneMap(chain(2), chain(2), ("0", 1)),
    lambda: MonotoneMap(chain(2), chain(2), (0.0, 1)),
    lambda: MonotoneMap(chain(2), chain(2), (False, True)),
], ids=["str-row", "float-n", "bool-rows", "int-labels", "float-n-from-covers",
        "str-cover", "str-image", "float-image", "bool-image"])
def test_entry_checks_reject_values_of_the_wrong_type(make):
    """The entry checks take ``int`` counts, rows and images (a ``bool``
    is not one) and ``str`` labels; any other value is a RangeError."""
    with pytest.raises(RangeError):
        make()


@pytest.mark.parametrize("make, value", [
    (lambda: resolve_capacity(2.5), 2.5),
    (lambda: resolve_capacity(True), True),
    (lambda: resolve_capacity("3"), "3"),
    (lambda: build(chain(3), 2.5), 2.5),
    (lambda: all_posets(2.0), 2.0),
    (lambda: all_posets(True), True),
    (lambda: random_poset(3.0, 1), 3.0),
    (lambda: iterate_sizes(chain(2), 2.0), 2.0),
    (lambda: iterate_sizes(chain(2), True), True),
    (lambda: poset_of_topology(2.0, (0, 1, 3)), 2.0),
], ids=["float-capacity", "bool-capacity", "str-capacity", "float-build-capacity",
        "float-all-posets", "bool-all-posets", "float-random-poset", "float-iterations",
        "bool-iterations", "float-topology-n"])
def test_budgets_and_counts_reject_values_of_the_wrong_type(make, value):
    """A capacity, an element count or an iteration count must be an
    ``int`` (a ``bool`` is not one), else a RangeError naming the value.
    ``all_posets(1)`` is cached first, so ``True`` must not be served it."""
    all_posets(1)
    with pytest.raises(RangeError, match=f"got {re.escape(repr(value))}$"):
        make()


def test_validation_matches_definition():
    """Every pair of row tuples on up to 3 elements, against the oracle."""
    for n in (1, 2, 3):
        rows = list(product(range(1 << n), repeat=n))
        for up in rows:
            transpose = order_transpose(n, up)
            for down in rows:
                try:
                    FinitePoset(n, up, down)
                    accepted = True
                except (ValueError, SmythError):
                    accepted = False
                assert accepted == (down == transpose), (n, up, down)


def test_validation_on_large_relabeled_order():
    """A 575-point powerdomain order renumbered off its linear extension,
    and its dual, whose indices follow the reverse of one."""
    order = build(random_poset(12, 1)).order
    rng = random.Random(5)
    image = list(range(order.n))
    rng.shuffle(image)
    for poset in (relabel(order, tuple(image)), order_dual(order)):
        assert poset.n == 575
        assert FinitePoset(poset.n, poset.up, poset.down) == poset
        for _ in range(3):
            i, j = rng.sample(range(poset.n), 2)
            up = list(poset.up)
            up[i] ^= 1 << j
            with pytest.raises((ValueError, SmythError)):
                FinitePoset(poset.n, tuple(up), poset.down)
            down = list(poset.down)
            down[i] ^= 1 << j
            with pytest.raises((ValueError, SmythError)):
                FinitePoset(poset.n, poset.up, tuple(down))


NOT_TRANSPOSE = "down rows are not the transpose of up rows"


def _flip_outcomes(poset, rows, bits):
    """Construct with one bit flipped: each bit of ``bits(r)`` in row ``r``
    of ``up``, then of ``down``, for each row ``r`` in ``rows``.  Yields
    the side, the rows and the error raised, None when accepted."""
    for r in rows:
        for b in bits(r):
            for side in ("up", "down"):
                up, down = list(poset.up), list(poset.down)
                (up if side == "up" else down)[r] ^= 1 << b
                try:
                    FinitePoset(poset.n, tuple(up), tuple(down))
                    error = None
                except (ValueError, SmythError) as exc:
                    error = exc
                yield side, tuple(up), tuple(down), error


def _check_up_flip_error(error):
    # the down-row pass never reads an up row, so an up-row flip that
    # the range and antisymmetry checks let through is caught by the
    # transpose pass
    if not isinstance(error, (RangeError, CycleError)):
        assert type(error) is NotAnOrderError and str(error) == NOT_TRANSPOSE


def test_every_single_bit_flip_matches_oracle():
    """Every bit of every row, one bit past the range included, of every
    labeled poset on up to 4 elements: accepted exactly when the oracle
    accepts."""
    for n in range(1, 5):
        for poset in all_posets(n):
            for side, up, down, error in _flip_outcomes(
                    poset, range(n), lambda r: range(n + 1)):
                assert (error is None) == (down == order_transpose(n, up)), (up, down)
                if side == "up":
                    _check_up_flip_error(error)


@pytest.mark.parametrize("make", [build, hat_powerdomain, inverse_powerdomain])
def test_single_bit_flips_of_large_orders_rejected(make):
    """The first, a middle and the last row of a 575-point order in
    canonical order.  Flipped: every cover bit of the row, every seventh
    bit and the bit past the range.  Every flip is rejected.  Up-row flips
    reach only the transpose pass; so do the down-row flips that leave
    every down row equal to the rows of its picks, such as dropping a
    lower cover of the top row."""
    order = make(random_poset(12, 1)).order
    n = order.n

    def bits(r):
        covers = order.upper_covers[r] | order.lower_covers[r]
        return sorted(set(iter_bits(covers)) | set(range(r % 7, n, 7)) | {n})

    messages = set()
    for side, _, _, error in _flip_outcomes(order, (0, n // 2, n - 1), bits):
        assert error is not None
        if side == "up":
            _check_up_flip_error(error)
        messages.add((side, str(error)))
    assert ("up", NOT_TRANSPOSE) in messages
    assert ("down", f"relation is not transitive below {n // 2}") in messages
    top = n - 1
    for k in iter_bits(order.lower_covers[top]):
        down = list(order.down)
        down[top] ^= 1 << k
        with pytest.raises(ValueError, match=NOT_TRANSPOSE):
            FinitePoset(n, order.up, tuple(down))


def _shuffled_order() -> FinitePoset:
    """The 575-point order of ``random_poset(12, 1)``, renumbered so that
    index order is not a linear extension."""
    order = build(random_poset(12, 1)).order
    image = list(range(order.n))
    random.Random(5).shuffle(image)
    return relabel(order, tuple(image))


def test_cover_pairs_match_definition():
    """Every labeled poset on up to 4 elements, a 1511-point powerdomain
    order in canonical order, and a 575-point one renumbered at random."""
    cases = [p for n in range(1, 5) for p in all_posets(n)]
    cases += [build(random_poset(13, 28)).order, _shuffled_order()]
    for poset in cases:
        assert poset.cover_pairs() == cover_pairs_by_definition(poset)
        assert poset.lower_covers == lower_covers_by_definition(poset)


def test_linear_extension_keeps_index_order_when_it_extends():
    """Every prefix of the cached extension is a down-set, it is index
    order whenever index order is a linear extension (the scan, smallest
    eligible index first, then returns index order too), and it is
    computed once.  The duals of the two large orders are not indexed
    along a linear extension, and neither is the shuffled order."""
    cases = [p for n in range(1, 6) for p in all_posets(n)]
    large = build(random_poset(13, 28)).order
    shuffled = _shuffled_order()
    cases += [large, shuffled, order_dual(large), order_dual(shuffled)]
    cases += [random_poset(n, seed) for n in (1, 9, 17) for seed in range(5)]
    for poset in cases:
        order = linear_extension(poset)
        assert sorted(order) == list(range(poset.n))
        seen = 0
        for x in order:
            seen |= 1 << x
            assert poset.down[x] & ~seen == 0
        index_order = tuple(range(poset.n))
        assert (order == index_order) == (linear_extension_by_scan(poset) == index_order)
        assert order is linear_extension(poset)
    assert linear_extension(large) == tuple(range(large.n))
    assert linear_extension(order_dual(large)) != tuple(range(large.n))


def test_minimal_finds_a_minimal_and_a_maximal_member():
    """On the down rows ``_minimal`` returns a minimal member of the mask,
    on the up rows a maximal one, for every nonempty mask of every
    labeled poset on up to 4 elements."""
    for poset in (p for n in range(1, 5) for p in all_posets(n)):
        for mask in range(1, poset.full + 1):
            low = _minimal(poset.down, mask)
            high = _minimal(poset.up, mask)
            assert mask >> low & 1 and poset.down[low] & mask == 1 << low
            assert mask >> high & 1 and poset.up[high] & mask == 1 << high


def test_heights_match_pair_loop():
    """Per-cover heights equal the max over every element below, on every
    labeled poset up to 5 elements, a 1511-point order and a renumbered
    575-point one."""
    cases = [p for n in range(1, 6) for p in all_posets(n)]
    cases += [build(random_poset(13, 28)).order, _shuffled_order()]
    for poset in cases:
        assert heights(poset) == heights_by_pairs(poset)


def test_depths_are_heights_of_the_dual():
    """The depths in the isomorphism signatures, read down the reversed
    linear extension, equal the heights of the dual order on every
    labeled poset up to 4 elements."""
    for poset in (p for n in range(1, 5) for p in all_posets(n)):
        depths = tuple(signature[3] for signature in _signatures(poset))
        assert depths == heights(order_dual(poset))


def test_equal_posets_hash_equal():
    """One poset reached by every constructor hashes alike, however built."""
    rng = random.Random(3)
    for n in range(1, 6):
        for _ in range(40):
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
            p = FinitePoset.from_cover_relations(n, pairs)
            image = list(range(n))
            rng.shuffle(image)
            inverse = tuple(sorted(range(n), key=image.__getitem__))
            moved = relabel(p, tuple(image))
            copies = (
                FinitePoset(n, p.up, p.down),
                FinitePoset.from_cover_relations(n, p.cover_pairs()),
                relabel(moved, inverse),
                order_dual(order_dual(p)),
            )
            for q in copies:
                assert q == p and q is not p
                assert hash(q) == hash(p)
            relabeled = FinitePoset.from_cover_relations(
                n, [(image[i], image[j]) for i, j in pairs]
            )
            assert relabeled == moved and hash(relabeled) == hash(moved)


def test_from_cover_relations_matches_closure_and_transpose():
    """Seeded relation sets, cyclic ones included: the same poset, or the
    same error, as rows closed pair by pair and transposed."""
    rng = random.Random(11)

    def outcome(make):
        try:
            return make()
        except SmythError as exc:
            return type(exc), str(exc)

    for _ in range(2000):
        n = rng.randint(1, 7)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 9))]
        direct = outcome(lambda: FinitePoset.from_cover_relations(n, pairs))
        oracle = outcome(lambda: FinitePoset(n, *closed_rows_by_pairs(n, pairs)))
        assert direct == oracle, (n, pairs)


def test_relabel_matches_pair_loop():
    """Every relabeling of every poset on up to 4 elements, and seeded
    relabelings of a labeled 12-element poset and its 575-point powerdomain
    order: rows and labels as the pair-by-pair loop moves them."""
    cases = [
        (poset, image)
        for n in range(1, 5)
        for poset in all_posets(n)
        for image in permutations(range(n))
    ]
    base = random_poset(12, 1)
    labeled = FinitePoset(base.n, base.up, base.down, tuple("abcdefghijkl"))
    rng = random.Random(7)
    for poset in (labeled, build(base).order):
        for _ in range(5):
            image = list(range(poset.n))
            rng.shuffle(image)
            cases.append((poset, tuple(image)))
    for poset, image in cases:
        moved = relabel(poset, image)
        assert (moved.up, moved.down) == relabeled_rows_by_pairs(poset, image)
        if poset.labels is not None:
            assert all(moved.labels[image[i]] == poset.labels[i] for i in range(poset.n))


def test_mask_helpers():
    assert mask_of([0, 2]) == 0b101
    assert list(iter_bits(0b1011)) == [0, 1, 3]
    assert mask_of(iter_bits(0b10110)) == 0b10110


@pytest.mark.parametrize("values", [
    (10, 11, 12, 13), [10, 11, 12, 13], {0: "a", 5: "b", 9: "c", 12: "a"}])
@pytest.mark.parametrize("indices", [(), (0,), [3], (2, 0), [0, 0, 3, 1, 2]])
def test_gather_matches_the_generator(values, indices):
    """Every index count (none, one, many) on a tuple, a list and a dict
    source gives the tuple the generator gives."""
    keys = sorted(values) if isinstance(values, dict) else range(len(values))
    at = [keys[i] for i in indices]
    assert gather(values, at) == tuple(values[i] for i in at)
    assert type(gather(values, at)) is tuple


def test_gather_seeded():
    rng = random.Random(45)
    for _ in range(300):
        values = tuple(rng.randrange(1 << 40) for _ in range(rng.randrange(1, 30)))
        source = rng.choice([values, list(values), dict(enumerate(values))])
        indices = [rng.randrange(len(values)) for _ in range(rng.randrange(30))]
        assert gather(source, indices) == tuple(source[i] for i in indices)


@pytest.mark.parametrize("values, indices, error", [
    ((7, 8), [5], IndexError),
    ((7, 8), [0, 5], IndexError),
    ([7, 8], (1, 0, 2), IndexError),
    ({1: 7, 2: 8}, [0], KeyError),
    ({1: 7, 2: 8}, (1, 3, 2), KeyError),
])
def test_gather_raises_what_the_generator_raises(values, indices, error):
    with pytest.raises(error) as expected:
        tuple(values[i] for i in indices)
    with pytest.raises(error) as raised:
        gather(values, indices)
    assert raised.value.args == expected.value.args


def test_check_subset_range(vee):
    check_subset(vee, 0b111)
    with pytest.raises(RangeError):
        check_subset(vee, 0b1000)
    with pytest.raises(RangeError):
        check_subset(vee, -1)


def test_closures_on_vee(vee):
    assert down_closure(vee, 0b100) == 0b111
    assert up_closure(vee, 0b001) == 0b101
    assert down_closure(vee, 0b011) == 0b011
    assert is_down_set(vee, 0b011)
    assert not is_down_set(vee, 0b100)
    assert is_up_set(vee, 0b100)
    assert not is_up_set(vee, 0b001)


@given(subsets())
def test_closure_laws(case):
    poset, mask = case
    down = down_closure(poset, mask)
    up = up_closure(poset, mask)
    assert down & mask == mask and up & mask == mask
    assert down_closure(poset, down) == down
    assert up_closure(poset, up) == up
    assert is_down_set(poset, down)
    assert is_up_set(poset, up)


@given(subsets())
def test_closure_duality(case):
    poset, mask = case
    dual = order_dual(poset)
    assert up_closure(poset, mask) == down_closure(dual, mask)
    assert is_down_set(poset, mask) == is_up_set(dual, mask)


@given(posets())
def test_order_dual_involution(poset):
    assert order_dual(order_dual(poset)) == poset


def test_heights_and_dimension(vee):
    assert heights(vee) == (0, 0, 1)
    assert dimension(vee) == 1
    assert dimension(chain(4)) == 3
    assert dimension(antichain(5)) == 0
    assert dimension(diamond_poset()) == 2


def test_sup_examples(vee):
    assert sup(vee, 0b011) == 2
    assert sup(vee, 0b001) == 0
    assert sup(vee, 0b111) == 2
    assert sup(vee, 0) is None
    assert sup(antichain(2), 0b11) is None
    assert binary_sup(vee, 0, 1) == 2
    assert binary_sup(antichain(2), 0, 1) is None


def test_sup_requires_least_upper_bound():
    # two minimal upper bounds, so no sup even though upper bounds exist
    p = FinitePoset.from_cover_relations(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    assert sup(p, 0b0011) is None


@given(subsets())
def test_sup_is_least_upper_bound(case):
    poset, mask = case
    value = sup(poset, mask)
    if mask == 0:
        assert value is None
        return
    uppers = [z for z in range(poset.n) if mask & ~poset.down[z] == 0]
    if value is None:
        assert not uppers or all(
            any(not poset.leq(u, w) for w in uppers) for u in uppers
        )
    else:
        assert value in uppers
        assert all(poset.leq(value, w) for w in uppers)


def test_sups_on_remapped_rows_match_the_scan():
    """Every labeled target on at most 3 elements, every value tuple of
    length at most 3 into it and every mask of the tuple's indices: the
    fold on the up rows of the values is the scanned sup of the image
    mask, and the empty mask gives the target's least element."""
    seen = 0
    for target in (p for n in range(1, 4) for p in all_posets(n)):
        least = next((x for x in range(target.n) if target.up[x] == target.full), None)
        for length in range(4):
            for values in product(range(target.n), repeat=length):
                masks = range(1 << length)
                found = _sups(target, gather(target.up, values), masks)
                assert found == [
                    _sup_by_scan(target, mask_of(values[x] for x in iter_bits(mask)))
                    for mask in masks], (target, values)
                assert found[0] == least
                seen += len(masks)
    assert seen == 5191


def test_linear_extension_vee(vee):
    assert linear_extension(vee) == (0, 1, 2)


@given(posets())
def test_linear_extension_prefixes_are_down_sets(poset):
    order = linear_extension(poset)
    assert sorted(order) == list(range(poset.n))
    seen = 0
    for x in order:
        assert poset.down[x] & ~(seen | (1 << x)) == 0
        seen |= 1 << x
        assert is_down_set(poset, seen)


def test_is_chain():
    assert is_chain(chain(1)) and is_chain(chain(5))
    assert not is_chain(antichain(2))
    assert not is_chain(vee_poset())


@given(posets())
def test_is_chain_iff_dimension(poset):
    assert is_chain(poset) == (dimension(poset) == poset.n - 1)


def test_is_chain_matches_the_dimension_on_every_small_poset():
    """``is_chain`` reads comparability off the rows; on every labeled
    poset with at most 5 elements it is the test that the dimension is
    n - 1."""
    for n in range(1, 6):
        for poset in all_posets(n):
            assert is_chain(poset) == (dimension(poset) == poset.n - 1)


def test_relabel_and_isomorphism(vee):
    moved = relabel(vee, (2, 0, 1))
    iso = find_isomorphism(vee, moved)
    assert iso == (0, 2, 1)
    assert all(
        vee.leq(x, y) == moved.leq(iso[x], iso[y])
        for x in range(3)
        for y in range(3)
    )
    assert find_isomorphism(vee, chain(3)) is None
    assert find_isomorphism(vee, antichain(3)) is None
    assert find_isomorphism(chain(2), chain(3)) is None


def test_find_isomorphism_matches_relabeling_classes():
    # labeled posets on at most four elements, grouped by their least up
    # rows over all relabelings: within a class every answer is an
    # isomorphism by the pair scan, and across classes there is none
    for n in range(1, 5):
        classes = defaultdict(list)
        for p in all_posets(n):
            key = min(relabel(p, perm).up for perm in permutations(range(n)))
            classes[key].append(p)
        for members in classes.values():
            for left in members:
                for right in members:
                    iso = find_isomorphism(left, right)
                    assert iso is not None
                    assert is_order_embedding_by_pairs(left, right, iso)
            for other in classes.values():
                if other is not members:
                    assert all(find_isomorphism(members[0], q) is None for q in other)


def two_squares() -> FinitePoset:
    """Two disjoint copies of the complete bipartite order K2,2: bottoms
    0 and 1 below tops 4 and 5, bottoms 2 and 3 below tops 6 and 7."""
    return FinitePoset.from_cover_relations(
        8, [(b, t) for b in range(4) for t in range(4, 8) if b // 2 == (t - 4) // 2])


def crown_8() -> FinitePoset:
    """The bipartite 8-cycle: bottom ``i`` lies below tops ``4 + i`` and
    ``4 + (i + 1) % 4``."""
    return FinitePoset.from_cover_relations(
        8, [(i, 4 + i) for i in range(4)] + [(i, 4 + (i + 1) % 4) for i in range(4)])


def test_find_isomorphism_backtracks_to_none():
    # every element's signature matches, so only the search tells the
    # two squares from the 8-cycle, after stepping back many times
    squares, crown = two_squares(), crown_8()
    assert sorted(_signatures(squares)) == sorted(_signatures(crown))
    assert next(isomorphisms_by_permutation(squares, crown), None) is None
    assert find_isomorphism(squares, crown) is None


def test_find_isomorphism_backtracks_to_a_map():
    # early choices fail further down, so the search steps back and
    # unplaces elements before it finds the map
    squares = two_squares()
    moved = relabel(squares, (0, 2, 1, 3, 4, 6, 5, 7))
    iso = find_isomorphism(squares, moved)
    assert iso in set(isomorphisms_by_permutation(squares, moved))


def test_find_isomorphism_on_a_long_chain(shallow_recursion):
    assert find_isomorphism(chain(400), chain(400)) == tuple(range(400))


@given(posets(max_n=5), st.randoms(use_true_random=False))
def test_relabel_round_trip(poset, rng):
    perm = list(range(poset.n))
    rng.shuffle(perm)
    moved = relabel(poset, tuple(perm))
    iso = find_isomorphism(poset, moved)
    assert iso is not None and is_order_embedding_by_pairs(poset, moved, iso)
    assert moved.n == poset.n


def test_order_embedding_matches_pair_scan():
    # every assignment between posets on at most three elements, monotone
    # or not: the row test accepts exactly what the pair scan accepts
    small = [p for n in range(1, 4) for p in all_posets(n)]
    assignments = embeddings = 0
    for source in small:
        for target in small:
            for image in product(range(target.n), repeat=source.n):
                expected = is_order_embedding_by_pairs(source, target, image)
                assert is_order_embedding(source, target, image) == expected
                assignments += 1
                embeddings += expected
    assert (assignments, embeddings) == (10838, 298)


def test_order_embedding_matches_pair_scan_on_injections_not_onto():
    """Every injective assignment from one poset per isomorphism class on
    3 elements into every labeled poset on 4: monotone maps that miss a
    comparable pair of the target must be told from embeddings."""
    classes: list = []
    for poset in all_posets(3):
        if all(find_isomorphism(rep, poset) is None for rep in classes):
            classes.append(poset)
    assert len(classes) == 5
    assignments = embeddings = 0
    for source in classes:
        for target in all_posets(4):
            for image in permutations(range(4), 3):
                expected = is_order_embedding_by_pairs(source, target, image)
                assert is_order_embedding(source, target, image) == expected
                assignments += 1
                embeddings += expected
    assert (assignments, embeddings) == (26280, 1464)


def test_order_embedding_of_phi_matches_pair_scan():
    """``phi`` of every labeled poset on up to 4 elements into its plain
    and its hat space, as built and with each two principal images
    swapped: injections into spaces of up to 16 points, onto only for
    the plain space of a chain."""
    checked = embeddings = 0
    for n in range(1, 5):
        for poset in all_posets(n):
            for space in (build(poset), hat_powerdomain(poset)):
                phi = space.phi_index
                images = [phi]
                for x, y in combinations(range(n), 2):
                    swapped = list(phi)
                    swapped[x], swapped[y] = phi[y], phi[x]
                    images.append(tuple(swapped))
                for image in images:
                    expected = is_order_embedding_by_pairs(poset, space.order, image)
                    assert is_order_embedding(poset, space.order, image) == expected
                    checked += 1
                    embeddings += expected
    assert (checked, embeddings) == (3232, 732)


def test_induced_subposet(vee):
    sub, elements = induced(vee, 0b101)
    assert elements == (0, 2)
    assert sub.n == 2
    assert sub.leq(0, 1)
    assert sub.labels == ("a1", "b")


def test_canonical_sort():
    assert canonical_sort([0b11, 0b1, 0b100, 0b10]) == (0b1, 0b10, 0b100, 0b11)


def test_enumerate_down_sets_counts(vee):
    assert enumerate_down_sets(chain(3), include_empty=False) == (1, 3, 7)
    assert enumerate_down_sets(chain(3)) == (0, 1, 3, 7)
    assert len(enumerate_down_sets(antichain(3), include_empty=False)) == 7
    assert enumerate_down_sets(vee, include_empty=False) == (
        0b001,
        0b010,
        0b011,
        0b111,
    )


@given(posets())
def test_enumerate_down_sets_matches_filter(poset):
    fast = enumerate_down_sets(poset)
    slow = down_sets_by_filter(poset)
    assert sorted(fast) == slow
    assert fast == canonical_sort(fast)


def test_enumerate_down_sets_capacity(vee):
    with pytest.raises(CapacityError):
        enumerate_down_sets(antichain(8), capacity=100)
    assert len(enumerate_down_sets(antichain(8), capacity=256)) == 256


def test_resolve_capacity(monkeypatch):
    monkeypatch.delenv(CAPACITY_ENV_VAR, raising=False)
    assert resolve_capacity(None) == DEFAULT_CAPACITY
    assert resolve_capacity(42) == 42
    monkeypatch.setenv(CAPACITY_ENV_VAR, "777")
    assert resolve_capacity(None) == 777
    assert resolve_capacity(10) == 10
    monkeypatch.setenv(CAPACITY_ENV_VAR, "bogus")
    with pytest.raises(RangeError):
        resolve_capacity(None)
    with pytest.raises(RangeError):
        resolve_capacity(0)


@settings(max_examples=40)
@given(posets(max_n=8))
def test_enumeration_strategies_agree(poset):
    # the mask filter is the oracle for the extension-growing strategy
    limit = DEFAULT_CAPACITY
    assert sorted(_down_sets_by_extension(poset, poset.full, limit)) == sorted(
        down_sets_by_filter(poset)
    )


@pytest.mark.parametrize("n", range(10, 15))
def test_down_sets_come_in_canonical_order_under_any_labeling(n):
    """Shuffled labels are no linear extension, so the per-size levels
    grow in several runs; both enumerations still return canonical
    order, on the whole poset and on random carriers of it."""
    rng = random.Random(n)
    for seed in range(3):
        poset = relabel(random_poset(n, seed), tuple(rng.sample(range(n), n)))
        assert linear_extension(poset) != tuple(range(n))
        expected = canonical_sort(down_sets_by_filter(poset))
        assert enumerate_down_sets(poset) == expected
        assert tuple(_down_sets_by_extension(poset, poset.full, DEFAULT_CAPACITY)) == expected
        for _ in range(3):
            carrier = rng.getrandbits(n) | 1 << rng.randrange(n)
            sub, elements = induced(poset, carrier)
            expected = canonical_sort(
                mask_of(elements[k] for k in iter_bits(local))
                for local in down_sets_by_filter(sub)
            )
            assert tuple(_down_sets_by_extension(poset, carrier, DEFAULT_CAPACITY)) == expected


def test_extension_strategy_capacity():
    """On a proper carrier the capacity error counts its elements only."""
    with pytest.raises(CapacityError):
        _down_sets_by_extension(antichain(10), (1 << 10) - 1, 50)
    with pytest.raises(CapacityError) as caught:
        _down_sets_by_extension(antichain(10), 0b111111, 50)
    assert str(caught.value) == "more than 50 down-sets on 6 elements"
    assert len(_down_sets_by_extension(antichain(10), 0b111111, 63)) == 64


@pytest.mark.parametrize("include_empty, fits", [(True, 256), (False, 255)])
def test_enumerate_down_sets_capacity_edge(include_empty, fits):
    """The 8-element antichain has 256 down-sets, the empty one included:
    a capacity of exactly the count returns them, one less raises."""
    poset = antichain(8)
    assert len(enumerate_down_sets(poset, include_empty, fits)) == fits
    with pytest.raises(CapacityError) as caught:
        enumerate_down_sets(poset, include_empty, fits - 1)
    assert str(caught.value) == f"more than {fits - 1} down-sets on 8 elements"
