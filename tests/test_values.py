"""Value semantics of the package's immutable classes.

Each class compares and hashes by its fields, except a built space,
which compares by identity; no field can be assigned or deleted; and
``cached_property`` still fills the instance dict.
"""

import sys

import pytest

from smyth import (
    CheckReport,
    FinitePoset,
    MonotoneMap,
    PowerdomainSpace,
    all_posets,
    build,
    maps,
    order_dual,
    poset,
)
from smyth.docio import PosetDocument
from smyth.poset import relabel

from conftest import chain, vee_poset


def value_cases():
    """Per class: keyword fields, and one field changed to another value.

    Each call builds fresh posets, so two calls give equal but distinct
    field objects."""
    vee, chain2 = vee_poset(), chain(2)
    return [
        (FinitePoset, dict(n=vee.n, up=vee.up, down=vee.down, labels=vee.labels),
         {"labels": ("x", "y", "z")}),
        (PosetDocument, dict(n=3, labels=("a1", "a2", "b"), covers=((0, 2), (1, 2)),
                             expect=None),
         {"covers": ((0, 2),)}),
        (CheckReport, dict(property="p", instance="{}", verdict="skipped",
                           reason="over budget", witness=None),
         {"reason": "not sup-complete"}),
        (MonotoneMap, dict(source=vee, target=chain2, image=(0, 0, 1)),
         {"image": (0, 0, 0)}),
    ]


CASE_IDS = [cls.__name__ for cls, _, _ in value_cases()]


@pytest.mark.parametrize("index", range(len(CASE_IDS)), ids=CASE_IDS)
def test_equal_fields_make_equal_values(index):
    cls, fields, change = value_cases()[index]
    _, same_fields, _ = value_cases()[index]
    value, same = cls(**fields), cls(**same_fields)
    assert value is not same
    assert value == same and not value != same
    assert hash(value) == hash(same)
    changed = cls(**{**fields, **change})
    assert value != changed and not value == changed
    assert value != tuple(fields.values())
    assert repr(value).startswith(f"{cls.__name__}(")


@pytest.mark.parametrize("index", range(len(CASE_IDS)), ids=CASE_IDS)
def test_fields_cannot_be_assigned(index):
    cls, fields, _ = value_cases()[index]
    value = cls(**fields)
    for name in [*fields, "extra"]:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    for name in fields:
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is fields[name]


def test_space_compares_by_identity():
    space = build(vee_poset())
    copy = PowerdomainSpace(space.base, space.points, space.order, space.phi_index)
    assert space == space and copy == copy
    assert space != copy
    assert len({space, copy}) == 2
    with pytest.raises(AttributeError):
        copy.order = space.order


def test_unchecked_map_equals_the_validated_one():
    """A map the package makes with no check equals and hashes like the
    validated map with the same fields."""
    vee, chain2 = vee_poset(), chain(2)
    checked = MonotoneMap(vee, chain2, (0, 0, 1))
    made = maps._made(vee, chain2, (0, 0, 1))
    assert checked == made and hash(checked) == hash(made)


def test_unchecked_map_keeps_the_shared_key_dict():
    """A map made with no check sets its fields as the constructor does,
    so its instance dict is the class's shared-key one, no larger."""
    vee, chain2 = vee_poset(), chain(2)
    checked = MonotoneMap(vee, chain2, (0, 0, 1))
    made = maps._made(vee, chain2, (0, 0, 1))
    assert sys.getsizeof(vars(made)) == sys.getsizeof(vars(checked))


def test_unchecked_poset_equals_the_validated_one():
    """Every labeled poset on up to 4 elements, its dual and a
    relabeling: the poset made with no check equals and hashes like the
    validated one with the same fields."""
    for n in range(1, 5):
        rotation = tuple(range(1, n)) + (0,)
        for base in all_posets(n):
            for made in (base, order_dual(base), relabel(base, rotation)):
                checked = FinitePoset(made.n, made.up, made.down, made.labels)
                fresh = poset._made_poset(made.n, made.up, made.down, made.labels)
                assert checked == made == fresh and fresh == checked
                assert hash(checked) == hash(made) == hash(fresh)


def test_cached_properties_fill_the_instance():
    poset = vee_poset()
    assert "upper_covers" not in poset.__dict__
    covers = poset.upper_covers
    assert poset.__dict__["upper_covers"] is covers is poset.upper_covers
    assert poset == vee_poset() and hash(poset) == hash(vee_poset())

    built = build(poset)
    space = PowerdomainSpace(built.base, built.points, built.order, built.phi_index)
    assert "_parents" not in space.__dict__
    parents = space._parents
    assert space.__dict__["_parents"] is parents is space._parents
