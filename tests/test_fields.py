import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mcuq.datasets import ShiftLevel, dataset_params
from mcuq.detection import NoiseSpec
from mcuq.fields import check_keys, choice, number
from mcuq.harness import ExperimentConfig
from mcuq.nn_core import TrainConfig
from mcuq.stochastic import KIND_BLOCK, KIND_UNIT, StochasticSpec

NAN, INF = float("nan"), float("inf")


def detection_config(**noise):
    return ExperimentConfig(task="detection",
                            dataset={"kind": "boxes-detection", **noise})


# Bad numbers and choices at every config and spec boundary: each raises a
# ValueError naming the field and the value.
@pytest.mark.parametrize("build,message", [
    pytest.param(lambda: detection_config(box_jitter=NAN),
                 "dataset: box_jitter nan is not a non-negative number",
                 id="box_jitter-nan"),
    pytest.param(lambda: detection_config(halluc_rate=NAN),
                 "dataset: halluc_rate nan is not a non-negative number",
                 id="halluc_rate-nan"),
    pytest.param(lambda: dataset_params("blobs-classification",
                                        {"label_noise": 7}),
                 "dataset: label_noise 7 is not in [0, 1]",
                 id="label_noise-7"),
    pytest.param(lambda: dataset_params("blobs-classification",
                                        {"label_noise": -3}),
                 "dataset: label_noise -3 is not in [0, 1]",
                 id="label_noise-minus-3"),
    pytest.param(lambda: dataset_params("blobs-classification",
                                        {"spread": -1}),
                 "dataset: spread -1 is not a non-negative number",
                 id="spread-minus-1"),
    pytest.param(lambda: dataset_params("blobs-classification",
                                        {"spread": NAN}),
                 "dataset: spread nan is not a non-negative number",
                 id="spread-nan"),
    pytest.param(lambda: dataset_params("moons-classification",
                                        {"noise": -0.5}),
                 "dataset: noise -0.5 is not a non-negative number",
                 id="moons-noise-minus-0.5"),
    pytest.param(lambda: dataset_params("moons-classification",
                                        {"noise": 10 ** 400}),
                 f"dataset: noise {10 ** 400} is not a non-negative number",
                 id="moons-noise-past-float64"),
    pytest.param(lambda: detection_config(halluc_rate=10 ** 400),
                 f"dataset: halluc_rate {10 ** 400} is not a non-negative "
                 "number", id="halluc_rate-past-float64"),
    pytest.param(lambda: ExperimentConfig(seed=1.5),
                 "seed: 1.5 is not an integer", id="seed-1.5"),
    pytest.param(lambda: ExperimentConfig(seed="x"),
                 "seed: 'x' is not an integer", id="seed-str"),
    pytest.param(lambda: ExperimentConfig(seed=True),
                 "seed: True is not an integer", id="seed-bool"),
    pytest.param(lambda: ExperimentConfig(methods=[["MCD"]]),
                 "methods: ['MCD'] is not one of", id="method-list"),
    pytest.param(lambda: StochasticSpec(kind=KIND_UNIT, drop_rate="0.1"),
                 "drop_rate '0.1' is not in [0, 1)", id="drop_rate-str"),
    pytest.param(lambda: StochasticSpec(kind=KIND_BLOCK, drop_rate=0.1,
                                        block_size=2.5),
                 "block_size 2.5 is not a positive integer",
                 id="block_size-2.5"),
    pytest.param(lambda: ShiftLevel(name="bad", rotation_deg=NAN),
                 "shift: rotation_deg nan is not a finite number",
                 id="rotation_deg-nan"),
    pytest.param(lambda: TrainConfig(learning_rate=INF),
                 "learning_rate inf is not a positive number",
                 id="learning_rate-inf"),
])
def test_bad_input_names_the_field_and_value(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert message in str(err.value)


def test_numpy_scalars_are_numbers_everywhere():
    cfg = ExperimentConfig(Ts=[np.int64(5)], drop_rates=[np.float64(0.2)],
                           seed=np.int64(3))
    assert cfg.seed == 3
    assert TrainConfig(learning_rate=np.float32(0.1),
                       epochs=np.int32(2)).epochs == 2
    assert NoiseSpec(box_jitter=np.float64(0.5)).box_jitter == 0.5


def plain_accepts(value, lo, hi, integer, open_lo, open_hi) -> bool:
    """The number rule written out case by case."""
    if isinstance(value, (bool, np.bool_)):
        return False
    if integer and not isinstance(value, (int, np.integer)):
        return False
    if not isinstance(value, (int, float, np.integer, np.floating)):
        return False
    if integer:
        x = value  # compared exactly: an int past float64's range is one
    else:
        try:
            x = float(value)
        except OverflowError:  # an int past float64's range
            return False
        if math.isnan(x) or math.isinf(x):
            return False
    if lo is not None and (x <= lo if open_lo else x < lo):
        return False
    if hi is not None and (x >= hi if open_hi else x > hi):
        return False
    return True


SPECIAL = st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0, NAN, INF, -INF])
VALUES = st.one_of(
    st.booleans(), st.integers(-3, 3), SPECIAL, st.floats(-3, 3),
    st.sampled_from([10 ** 400, -10 ** 400, 2 ** 1024]),
    st.builds(np.int64, st.integers(-3, 3)),
    st.builds(np.float64, SPECIAL), st.builds(np.float32, st.floats(-3, 3)),
    st.builds(np.bool_, st.booleans()), st.text(max_size=2), st.none())
BOUND = st.sampled_from([-1, 0, 0.5, 1, 2])


@given(value=VALUES, lo=st.none() | BOUND, hi=st.none() | BOUND,
       integer=st.booleans(), open_lo=st.booleans(), open_hi=st.booleans())
def test_number_matches_the_plain_rule(value, lo, hi, integer, open_lo,
                                       open_hi):
    if lo is None:
        hi = None  # an upper bound comes with a lower one
    expected = plain_accepts(value, lo, hi, integer, open_lo, open_hi)
    kwargs = dict(integer=integer, open_lo=open_lo, open_hi=open_hi)
    if expected:
        assert number("x", value, lo, hi, **kwargs) is value
        return
    with pytest.raises(ValueError) as err:
        number("x", value, lo, hi, **kwargs)
    message = str(err.value)
    assert message.startswith(f"x {value!r} is not ")
    if hi is not None:
        assert f"{lo}, {hi}" in message


def test_choice_and_keys():
    assert choice("mode", "a", ("a", "b")) == "a"
    with pytest.raises(ValueError,
                       match=r"mode 'c' is not one of \('a', 'b'\)"):
        choice("mode", "c", ("a", "b"))
    check_keys("block", {"a": 1}, ("a", "b"), ("a",))
    check_keys("block", {"z": 1})  # any key when nothing is listed
    for d, message in (([1], "block: [1] is not a mapping"),
                       ({"c": 1}, "block: unknown keys ['c']; known keys "
                                  "are ['a', 'b']"),
                       ({"b": 1}, "block: missing key 'a'")):
        with pytest.raises(ValueError) as err:
            check_keys("block", d, ("a", "b"), ("a",))
        assert str(err.value) == message
