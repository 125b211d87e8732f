import math
import re
from fractions import Fraction

import numpy as np
import pytest

from graphsync.errors import DomainError, NegativeWeightError, real


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

