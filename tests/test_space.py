import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pricechoose as pc
from conftest import hurricane_space


def test_aggregate_hurricane_hit_counts():
    space, profile = hurricane_space(hit_prob=0.1, loss=1.0)
    x = pc.aggregate_risk(profile)
    assert set(np.unique(x)) == {0.0, -1.0, -2.0, -3.0}
    for w, s in enumerate(space.states):
        assert x[w] == -float(s.count("1"))


def test_aggregate_zero_endowments():
    space = pc.StateSpace(["a", "b"], [0.4, 0.6])
    profile = pc.EndowmentProfile(space, np.zeros((3, 2)))
    assert np.all(pc.aggregate_risk(profile) == 0.0)


def test_aggregate_componentwise():
    space = pc.StateSpace(["a", "b"], [0.4, 0.6])
    profile = pc.EndowmentProfile(space, [[1.0, -2.0], [0.0, 1.0]])
    assert pc.aggregate_risk(profile).tolist() == [1.0, -1.0]


@given(st.integers(2, 4), st.integers(1, 5), st.data())
@settings(max_examples=50, deadline=None)
def test_aggregate_is_linear(n, m, data):
    ints = st.lists(st.lists(st.integers(-20, 20), min_size=m, max_size=m),
                    min_size=n, max_size=n)
    a = np.array(data.draw(ints), dtype=float)
    b = np.array(data.draw(ints), dtype=float)
    space = pc.StateSpace([f"s{i}" for i in range(m)], np.full(m, 1.0 / m))
    agg = lambda e: pc.aggregate_risk(pc.EndowmentProfile(space, e))
    assert np.array_equal(agg(a + b), agg(a) + agg(b))


def test_zero_probability_state_rejected():
    with pytest.raises(pc.ValidationError, match="zero-probability"):
        pc.StateSpace(["a", "b"], [1.0, 0.0])


def test_probabilities_must_sum_to_one():
    with pytest.raises(pc.ValidationError, match="sum"):
        pc.StateSpace(["a", "b"], [0.5, 0.6])


def test_duplicate_states_rejected():
    with pytest.raises(pc.ValidationError, match="unique"):
        pc.StateSpace(["a", "a"], [0.5, 0.5])


def test_mismatched_endowment_shape():
    space = pc.StateSpace(["a", "b"], [0.5, 0.5])
    with pytest.raises(pc.StructuralError):
        pc.EndowmentProfile(space, [[1.0], [2.0]])


def test_single_agent_rejected():
    space = pc.StateSpace(["a"], [1.0])
    with pytest.raises(pc.ValidationError, match="two agents"):
        pc.EndowmentProfile(space, [[1.0]])


def test_check_variable_length():
    space = pc.StateSpace(["a", "b"], [0.5, 0.5])
    with pytest.raises(pc.StructuralError):
        space.check_variable([1.0, 2.0, 3.0])
