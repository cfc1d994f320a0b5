"""Property tests on the readers' boundaries: a mutated checkpoint, config,
reports CSV or ``make-data --params`` object loads whole, or fails with a
``ValueError`` (or, for a checkpoint, a ``FloatingPointError``) whose message
names the input and what in it is wrong.  They run under hypothesis' ``ci``
profile: derandomized, 100 examples each."""

import argparse
import copy
import csv
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from mcuq.cli import _build_config
from mcuq.datasets import DATASET_PARAMS, dataset_params
from mcuq.fields import parse_json
from mcuq.harness import ExperimentConfig
from mcuq.metrics import (
    REPORT_COLUMNS,
    ConfigPoint,
    EvalReport,
    load_reports,
    save_reports,
)
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


def _names_all(message: str, alternatives) -> bool:
    """Whether ``message`` holds every string of some alternative."""
    return any(all(name in message for name in names)
               for names in alternatives)


# Out-of-range numbers for any bounded field: below every lower bound, on
# an open bound, above [0, 1], far above any count, past float64's range
OUT_OF_RANGE = st.sampled_from([-1, -0.5, 0, 0.0, 1.5, 2 ** 70, 10 ** 400,
                                -10 ** 400])
NON_FINITE = st.sampled_from([float("nan"), float("inf"), float("-inf")])
# Keys no reader knows, none of them a substring of a message on its own
UNKNOWN_KEYS = st.sampled_from(["extra", "seeds", "widths"])


def _mutated_value(kind: str):
    return {"retype": JSON_VALUES, "nonfinite": NON_FINITE,
            "range": OUT_OF_RANGE}[kind]


# --- the config reader: mcuq sweep --config, through cli._build_config ---

GRID = {"methods": ["MCD", "MCSD"], "drop_rates": [0.1, 0.2], "Ts": [2, 3],
        "conf_thresholds": [0.0, 0.5], "adapted_presets": ["all"]}
SCALARS = {"block_size": 4, "ece_bins": 15, "theta_iou": 0.5,
           "match_tau": 0.5, "test_fraction": 0.4, "out_dir": "out",
           "seed": 0}
CONFIGS = [
    {"task": "classification",
     "dataset": {"kind": "blobs-classification", "n": 80, "n_classes": 3,
                 "spread": 0.6, "radius": 3.0, "label_noise": 0.1},
     "arch": {"n_blocks": 2, "width": 4, "output_mode": "softmax",
              "activation": "relu"},
     "train": {"learning_rate": 0.05, "weight_decay": 1e-4, "epochs": 2,
               "batch_size": 32},
     **GRID, **SCALARS},
    {"task": "detection",
     "dataset": {"kind": "boxes-detection", "n_images": 4, "n_classes": 3,
                 "boxes_per_image": 3, "box_jitter": 1.0, "miss_prob": 0.05,
                 "halluc_rate": 0.3, "sharpness": 0.9},
     "arch": {"n_blocks": 2, "width": 4, "output_mode": "sigmoid"},
     "train": {"learning_rate": 0.05},
     **GRID, **SCALARS},
]
# A field whose value another field's check reads: that check may name
# the other field alone
COUPLED = {"task": ("dataset",), "dataset": ("test_fraction",)}


@st.composite
def config_mutations(draw):
    """A mutated config as JSON bytes, the alternatives its error must name
    (the field and the key within a section, a field coupled to it, or, for
    garbled text, the file), and whether no config of that kind is valid."""
    config = copy.deepcopy(draw(st.sampled_from(CONFIGS)))
    kind = draw(st.sampled_from(["drop", "add", "retype", "nonfinite",
                                 "range", "garble"]))
    if kind == "garble":  # cut short, or with a byte that is not UTF-8
        text = json.dumps(config).encode()
        cut = draw(st.integers(0, len(text) - 1))
        return text[:cut] + draw(st.sampled_from([b"", b"\xff"])), None, True
    field = draw(st.sampled_from(sorted(config)))
    coupled = [(name,) for name in COUPLED.get(field, ())]
    where, key, names = config, field, [(field,)] + coupled
    if isinstance(config[field], dict):  # a key within a section
        where = config[field]
        key = draw(st.sampled_from(sorted(where)))
        names = [(field, key)] + coupled
    elif isinstance(config[field], list):  # an entry of a grid list
        where = config[field]
        key = draw(st.integers(0, len(where) - 1))
    if kind == "drop":
        del where[key]
    elif kind == "add":
        if isinstance(where, list):
            where.append(draw(st.one_of(st.sampled_from(where), JSON_VALUES)))
        else:
            key = draw(UNKNOWN_KEYS)
            where[key] = draw(JSON_VALUES)
            names = [(field, key) if where is not config else (key,)]
            return json.dumps(config).encode(), names, True
    else:
        where[key] = draw(_mutated_value(kind))
    return json.dumps(config).encode(), names, kind == "nonfinite"


@settings(CI)
@given(mutation=config_mutations())
def test_a_mutated_config_loads_whole_or_fails_named(mutation):
    text, names, invalid = mutation
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_bytes(text)
        try:
            cfg = _build_config(argparse.Namespace(config=path))
        except ValueError as exc:
            assert _names_all(str(exc), names or [(f"config {path}: ",)]), \
                (names, exc)
            return
    assert not invalid, text
    # whole: every value is finite, and the config rebuilds from itself
    json.dumps(vars(cfg), allow_nan=False)
    assert ExperimentConfig(**copy.deepcopy(vars(cfg))) == cfg


# --- the reports reader: metrics.load_reports ---

REPORT_POINTS = [
    (ConfigPoint(method, rate, T, 0.0, "all"),
     EvalReport(0.8 + rate / 2, 0.1, 0.05, 0.9 - rate, 0.4 + T / 10))
    for method, rate, T in (("MCD", 0.1, 2), ("MCSD", 0.2, 3),
                            ("MCDB", 0.05, 5))]
# Cell values that are no number, a non-finite one, one past float64's
# range, or one that is a number but not an int; some parse everywhere
CELLS = st.sampled_from(["", "x", "nan", "inf", "-inf", "1e400", "0x10",
                         "2.5", " 7 ", "1_0", "None", "١"])


@st.composite
def report_mutations(draw, path):
    """Write a mutated reports CSV to ``path``; return the alternatives its
    error must name besides the path (the column and data row, the header,
    or the undecodable bytes) and whether no file of that kind is valid."""
    with tempfile.TemporaryDirectory() as tmp:
        save_reports(REPORT_POINTS, Path(tmp) / "reports.csv")
        text = (Path(tmp) / "reports.csv").read_text()
    rows = list(csv.reader(io.StringIO(text, newline="")))
    columns = list(rows[0])
    kind = draw(st.sampled_from(["garble", "drop column", "add column",
                                 "repeat column", "drop cell", "add cell",
                                 "truncate", "bytes"]))
    r = draw(st.integers(1, len(rows) - 1))
    c = draw(st.integers(0, len(columns) - 1))
    names = [("column",)]
    if kind == "garble":
        rows[r][c] = draw(CELLS)
        names = [(f"data row {r}, column {columns[c]!r}: bad value "
                  f"{rows[r][c]!r}",)]
    elif kind == "drop column":
        for row in rows:
            del row[c]
        names = [(f"header lacks the report columns {[columns[c]]}",)]
    elif kind == "add column":
        for row in rows:
            row.append(draw(CELLS) if row is not rows[0] else "extra")
    elif kind == "repeat column":
        for row in rows:
            row.append(row[c])
        names = [(f"header repeats the columns {[columns[c]]}",)]
    elif kind == "drop cell":
        rows[r].pop()
        names = [(f"data row {r}, column {columns[-1]!r}: bad value None",)]
    elif kind == "add cell":
        rows[r].append(draw(CELLS))
    out = io.StringIO(newline="")
    csv.writer(out, lineterminator="\n").writerows(rows)
    data = out.getvalue().encode()
    if kind == "truncate":
        data = data[:draw(st.integers(0, len(data) - 1))]
        names = [("column",), ("header",)]
    elif kind == "bytes":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\x80"])) \
            + data[at:]
        names = [("codec", "position"), ("column",), ("header",)]
    path.write_bytes(data)
    return names, kind in ("drop column", "repeat column", "drop cell",
                           "bytes")


@settings(CI)
@given(st.data())
def test_a_mutated_reports_csv_loads_whole_or_fails_named(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "reports.csv"
        names, invalid = data.draw(report_mutations(path))
        try:
            points = load_reports(path)
        except ValueError as exc:
            message = str(exc)
            assert message.startswith(f"{path}: "), exc
            assert _names_all(message, names), (names, exc)
            return
        assert not invalid, path.read_bytes()
    # whole: each row has every column, each of its type, floats finite
    for cfg, report in points:
        values = vars(cfg) | vars(report)
        assert list(values) == list(REPORT_COLUMNS)
        for name, kind in REPORT_COLUMNS.items():
            assert type(values[name]) is kind, (name, values[name])
            if kind is float:
                assert math.isfinite(values[name]), (name, values[name])


# --- the generator parameters: datasets.dataset_params (make-data --params) ---

PARAMS = [("blobs-classification", {"n": 80, "n_classes": 3, "spread": 0.6,
                                    "radius": 3.0, "label_noise": 0.2}),
          ("moons-classification", {"n": 50, "noise": 0.1}),
          ("boxes-detection", {"n_images": 4, "n_classes": 2,
                               "boxes_per_image": 3})]


@st.composite
def params_mutations(draw):
    """(kind, --params JSON text) mutated, the alternatives its error must
    name (the section and the key, or ``--params`` for garbled text), and
    whether no such input is valid."""
    kind, params = copy.deepcopy(draw(st.sampled_from(PARAMS)))
    mutation = draw(st.sampled_from(["drop", "add", "retype", "nonfinite",
                                     "range", "kind", "garble"]))
    key = draw(st.sampled_from(sorted(params)))
    names = [("dataset", key)]
    if mutation == "drop":
        del params[key]
    elif mutation == "add":
        key = draw(UNKNOWN_KEYS)
        params[key] = draw(JSON_VALUES)
        names = [("dataset", key)]
    elif mutation == "kind":
        kind = draw(st.one_of(st.sampled_from(["blobs", "boxes"]),
                              JSON_VALUES))
        names = [("dataset: kind",)]
    elif mutation != "garble":
        params[key] = draw(_mutated_value(mutation))
    text = json.dumps(params)
    if mutation == "garble":
        text = text[:draw(st.integers(0, len(text) - 1))]
        names = [("--params",)]
    return kind, text, names, mutation not in ("drop", "retype", "range")


@settings(CI)
@given(mutation=params_mutations())
def test_mutated_dataset_params_load_whole_or_fail_named(mutation):
    kind, text, names, invalid = mutation
    try:
        params = dataset_params(kind, parse_json("--params", text))
    except ValueError as exc:
        assert _names_all(str(exc), names), (names, exc)
        return
    assert not invalid, (kind, text)
    # whole: every key of the kind, each of its default's type and bounds
    table = DATASET_PARAMS[kind]
    assert list(params) == list(table)
    for key, (default, lo, *hi) in table.items():
        assert type(params[key]) is type(default), (key, params[key])
        assert lo <= params[key] <= (hi or [math.inf])[0], (key, params[key])
