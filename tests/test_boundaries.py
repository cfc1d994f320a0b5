"""Property tests on the readers' boundaries: a mutated input loads whole,
or fails with a ``ValueError`` or ``FloatingPointError`` whose message names
what is wrong.  They run under hypothesis' ``ci`` profile: derandomized,
100 examples each."""

import copy
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from mcuq.nn_core import (
    ARCH_KEYS,
    MAX_BLOCKS,
    init_net,
    load_checkpoint,
    save_checkpoint,
)

CI = settings.get_profile("ci")

# A value of each JSON type, with ints past float64's range
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.sampled_from([10 ** 400, -10 ** 400]), st.floats(),
    st.text(max_size=3), st.lists(st.floats(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1))

# An arch key's in-range, out-of-range and mistyped values
ARCH_VALUES = {
    **dict.fromkeys(("in_dim", "width", "n_blocks", "n_classes"), st.one_of(
        st.integers(-2, 6), st.sampled_from([MAX_BLOCKS + 1, 2 ** 70]),
        JSON_VALUES)),
    "output_mode": st.one_of(st.sampled_from(["softmax", "sigmoid"]),
                             JSON_VALUES),
    "activation": st.one_of(st.sampled_from(["relu", "identity"]),
                            JSON_VALUES),
}


def _checkpoint() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        save_checkpoint(init_net(2, 3, 2, 3, seed=5), path,
                        config_echo={"method": "MCSD"})
        return json.loads(path.read_text())


CHECKPOINT = _checkpoint()
N_VALUES = len(CHECKPOINT["values"])


@st.composite
def mutations(draw):
    """A mutated copy of ``CHECKPOINT`` and the names its error may give:
    the section, the arch key or ``values``."""
    payload = copy.deepcopy(CHECKPOINT)
    values, arch = payload["values"], payload["config"]["arch"]
    kind = draw(st.sampled_from(["drop", "append", "retype", "arch",
                                 "section"]))
    index = draw(st.integers(0, N_VALUES - 1))
    if kind == "drop":
        del values[index]
    elif kind == "append":
        values.append(draw(JSON_VALUES))
    elif kind == "retype":
        values[index] = draw(st.one_of(st.floats(), JSON_VALUES))
    elif kind == "arch":
        key = draw(st.sampled_from(ARCH_KEYS))
        arch[key] = draw(ARCH_VALUES[key])
        # a valid arch of another size is refused by its count
        return payload, (key, "values")
    else:
        section = draw(st.sampled_from(["config", "values", "arch"]))
        (payload["config"] if section == "arch" else payload).pop(section)
        return payload, (section,)
    return payload, ("values",)


@settings(CI)
@given(mutation=mutations())
def test_a_mutated_checkpoint_loads_whole_or_fails_named(mutation):
    payload, names = mutation
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        path.write_text(json.dumps(payload))
        try:
            net, config = load_checkpoint(path)
        except (ValueError, FloatingPointError) as exc:
            assert any(name in str(exc) for name in names), (names, exc)
            return
    assert net.values.tolist() == payload["values"]
    assert config == payload["config"]
    assert net.arch() == payload["config"]["arch"]
