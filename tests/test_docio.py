"""Document parsing, file round trips, and graph exports."""

import json

import pytest
from hypothesis import given

from smyth import DocumentError, FinitePoset, build
from smyth.docio import (
    EXPECT_KEYS,
    document_from_payload,
    document_of_poset,
    load_document,
    point_lists,
    powerdomain_to_dot,
)

from conftest import assert_valid_dot, posets


def vee_payload():
    return {
        "n": 3,
        "labels": ["a1", "a2", "b"],
        "covers": [[0, 2], [1, 2]],
    }


def test_payload_round_trip():
    doc = document_from_payload(vee_payload())
    assert doc.n == 3
    assert doc.labels == ("a1", "a2", "b")
    assert doc.covers == ((0, 2), (1, 2))
    assert doc.expect is None
    assert doc.to_payload() == vee_payload()


def test_payload_with_expect():
    payload = vee_payload()
    payload["expect"] = {"point_count": 4, "phi_onto": False}
    doc = document_from_payload(payload)
    assert doc.expect == {"point_count": 4, "phi_onto": False}
    assert doc.to_payload() == payload


def test_to_poset(vee):
    assert document_from_payload(vee_payload()).to_poset() == vee


@given(posets(max_n=6))
def test_document_of_poset_round_trip(poset):
    doc = document_of_poset(poset)
    assert doc.to_poset().up == poset.up
    again = document_from_payload(doc.to_payload())
    assert again.to_poset().up == poset.up


def test_file_round_trip(tmp_path, vee):
    target = tmp_path / "vee.json"
    target.write_text(json.dumps(document_of_poset(vee).to_payload(), indent=2))
    loaded = load_document(target)
    assert loaded.to_poset() == vee
    raw = json.loads(target.read_text())
    assert raw["n"] == 3


def test_load_rejects_bad_json(tmp_path):
    target = tmp_path / "broken.json"
    target.write_text("{not json")
    with pytest.raises(DocumentError):
        load_document(target)
    target.write_text('["a", "list"]')
    with pytest.raises(DocumentError):
        load_document(target)


@pytest.mark.parametrize("content", [b"[" * 200000, b'{"n": 1, "labels": ["\xff"]}'],
                         ids=["deep-nesting", "not-utf8"])
def test_load_rejects_unparsable_bytes(tmp_path, content):
    target = tmp_path / "doc.json"
    target.write_bytes(content)
    with pytest.raises(DocumentError):
        load_document(target)


@pytest.mark.parametrize("content, key", [
    ('{"n": 3, "covers": [[0, 1]], "n": 4}', "n"),
    ('{"n": 2, "covers": [], "expect": {"point_count": 3, "point_count": 2}}',
     "point_count"),
    ('{"n": 2, "covers": [], "labels": ["a", "b"], "labels": ["a", "b"]}', "labels"),
], ids=["top-level", "in-expect", "same-value"])
def test_load_rejects_a_repeated_key(tmp_path, content, key):
    # json.loads alone keeps the last value and reads a different poset
    target = tmp_path / "doc.json"
    target.write_text(content)
    with pytest.raises(DocumentError) as info:
        load_document(target)
    assert str(info.value) == f"a JSON object repeats the key {key!r}"


def test_document_validation_errors():
    bad_payloads = [
        ({"n": 3, "covers": [], "bogus": 1}, "bogus"),
        ({"covers": []}, "n"),
        ({"n": 0, "covers": []}, "n"),
        ({"n": 65, "covers": []}, "n"),
        ({"n": "3", "covers": []}, "n"),
        ({"n": True, "covers": []}, "n"),
        ({"n": 2, "covers": [[0]]}, "cover"),
        ({"n": 2, "covers": [[0, 2]]}, "cover"),
        ({"n": 2, "covers": [[0, 1], [1, "x"]]}, "cover"),
        ({"n": 2, "covers": 7}, "covers"),
        ({"n": 2, "covers": [], "labels": ["only"]}, "labels"),
        ({"n": 2, "covers": [], "labels": ["a", 3]}, "labels"),
        ({"n": 2, "covers": [], "labels": ["a", "a"]}, "labels"),
        ({"n": 2, "covers": [], "expect": {"nope": 1}}, "expect"),
        ({"n": 2, "covers": [], "expect": 5}, "expect"),
        ({"n": 2, "covers": [], "expect": {"points": [[0, "1"]]}}, "points"),
        ({"n": 2, "covers": [], "expect": {"point_count": "4"}}, "point_count"),
        ({"n": 2, "covers": [], "expect": {"dimension": True}}, "dimension"),
        ({"n": 2, "covers": [], "expect": {"phi_onto": 1}}, "phi_onto"),
    ]
    for payload, fragment in bad_payloads:
        with pytest.raises(DocumentError) as info:
            document_from_payload(payload)
        assert fragment in str(info.value)


def test_expect_keys_frozen():
    assert EXPECT_KEYS == {"points", "point_count", "dimension", "phi_onto"}


def test_point_lists(vee):
    assert point_lists(build(vee)) == [[0], [1], [0, 1], [0, 1, 2]]


def test_powerdomain_dot_exact(vee):
    assert powerdomain_to_dot(build(vee)) == (
        "digraph powerdomain {\n"
        '  n0 [label="{a1}"];\n'
        '  n1 [label="{a2}"];\n'
        '  n2 [label="{a1,a2}"];\n'
        '  n3 [label="{a1,a2,b}"];\n'
        "  n0 -> n2;\n"
        "  n1 -> n2;\n"
        "  n2 -> n3;\n"
        "}\n"
    )


def test_powerdomain_dot_valid(vee):
    text = powerdomain_to_dot(build(vee))
    nodes, edges = assert_valid_dot(text)
    assert nodes == 4
    # {a1} and {a2} join at {a1,a2}, then one step to the full set
    assert edges == 3
    assert 'label="{a1,a2,b}"' in text


@given(posets(max_n=5))
def test_dot_exports_always_parse(poset):
    space = build(poset)
    nodes, _ = assert_valid_dot(powerdomain_to_dot(space))
    assert nodes == space.order.n


def test_unlabeled_poset_gets_index_labels():
    p = FinitePoset.from_cover_relations(2, [(0, 1)])
    text = powerdomain_to_dot(build(p))
    assert 'n0 [label="{0}"];' in text
    assert 'n1 [label="{0,1}"];' in text
