import math
import re
from fractions import Fraction

import numpy as np
import pytest

from graphsync.errors import (
    DomainError, GraphConstructionError, NegativeWeightError, document, real,
)


def in_unit(v) -> bool:
    return 0 <= v <= 1


@pytest.mark.parametrize("value", [0, 1, 0.5, np.float64(0.5), np.int64(1), Fraction(1, 2)])
def test_real_hands_back_an_admitted_number_as_it_is(value):
    assert real(value, "r", "in [0, 1]", in_unit) is value


@pytest.mark.parametrize(
    "value", [True, False, np.bool_(True), "0.5", None, [0.5], 0.5j, math.nan, math.inf, 1.5, -5e-324],
)
def test_real_refuses_a_bool_a_non_number_and_what_the_predicate_refuses(value):
    with pytest.raises(DomainError, match=re.escape(f"r must be in [0, 1], got {value!r}")):
        real(value, "r", "in [0, 1]", in_unit)


def test_real_raises_the_error_it_is_given():
    with pytest.raises(NegativeWeightError):
        real(-1.0, "omega", ">= 0", lambda w: w >= 0, NegativeWeightError)



def test_document_hands_back_a_mapping_with_its_keys():
    doc = {"kind": "x", "a": 1}
    assert document(doc, "a thing", ("kind",), ("a", "b")) is doc
    assert document({}, "a thing") == {}


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"kind": "x", "c": 1}, "a thing has unknown keys ['c']"),
        ({"a": 1}, "a thing has missing keys ['kind']"),
        ({"a": 1, "kidn": "x"}, "a thing has unknown keys ['kidn'] and missing keys ['kind']"),
        (["kind", "x"], "a thing must be a mapping, got ['kind', 'x']"),
        (None, "a thing must be a mapping, got None"),
    ],
)
def test_document_refuses_unknown_and_missing_keys_and_a_non_mapping(doc, message):
    with pytest.raises(DomainError, match=re.escape(message)):
        document(doc, "a thing", ("kind",), ("a", "b"))
    with pytest.raises(GraphConstructionError, match=re.escape(message)):
        document(doc, "a thing", ("kind",), ("a", "b"), GraphConstructionError)
