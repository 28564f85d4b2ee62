"""The checkpoint and config boundary: a mutated model file or run config
either works or raises a package error, and the CLI reports a rejected one
as one JSON line with its documented exit code (4 checkpoint, 2 config)."""
import copy
import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from scendiff import cli
from scendiff import diffusion as dif
from scendiff.cli import main
from scendiff.data import TRACKS, Scaler
from scendiff.errors import ModelValidationError, ScendiffError

FUZZ = settings(max_examples=100, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

# JSON values a field may be replaced with: wrong kinds, edge numbers, and
# values of the right kind that are out of range or name nothing
VALUES = st.one_of(
    st.sampled_from(["", "x", ".", "\x00", "pv", "wind", "relu", "linear", -1, 0, 1, 2,
                     0.5, -0.5, 1.5, 1e300, True, False, None, [], {}, [1], [-1], ["x"],
                     [0.5, 0.5], {"a": 1}, float("nan"), float("inf")]),
    st.integers(-3, 3),
    st.text(max_size=6),
)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A data CSV, a tiny run config over it, and the checkpoint it trains."""
    base = tmp_path_factory.mktemp("trained")
    data = base / "pv.csv"
    assert main(["synth", "--profile", "sine_pv", "--days", "40", "--seed", "4",
                 "--out", str(data)]) == 0
    cfg = copy.deepcopy(cli.DEFAULT_CONFIG)
    cfg.update(track="pv", data=str(data), m_scenarios=4)
    cfg["split"]["fractions"] = [0.8, 0.1, 0.1]
    cfg["schedule"].update(n=25, beta_end=0.4)
    cfg["model"].update(hidden=[8], embed_dim=4)
    cfg["optimizer"].update(epochs=2, batch_size=16)
    (base / "cfg.json").write_text(json.dumps(cfg))
    assert main(["train", "--config", str(base / "cfg.json"), "--out", str(base)]) == 0
    return base, cfg, (base / "model_pv_z1.ckpt").read_bytes()


def _paths(doc, depth):
    """Key paths into doc's objects, down to `depth` keys."""
    for key, val in doc.items():
        yield (key,)
        if depth > 1 and isinstance(val, dict):
            yield from ((key, *sub) for sub in _paths(val, depth - 1))


def _parent(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


def _assert_reported(rc, err, codes):
    if rc == 0:
        assert err == ""
    else:
        assert rc in codes
        lines = err.splitlines()
        assert len(lines) == 1
        assert set(json.loads(lines[0])) == {"error", "message"}


@st.composite
def mutated_checkpoints(draw, raw):
    """`raw` with a header field replaced or deleted, the file truncated, or
    one byte flipped."""
    how = draw(st.sampled_from(["replace", "delete", "truncate", "flip"]))
    if how == "truncate":
        return raw[: draw(st.integers(0, len(raw) - 1))]
    if how == "flip":
        out = bytearray(raw)
        out[draw(st.integers(0, len(raw) - 1))] ^= 1 << draw(st.integers(0, 7))
        return bytes(out)
    nl = raw.find(b"\n")
    header = json.loads(raw[:nl])
    path = draw(st.sampled_from(list(_paths(header, 2))))
    if how == "delete":
        del _parent(header, path)[path[-1]]
    else:
        _parent(header, path)[path[-1]] = draw(VALUES)
    return json.dumps(header).encode() + raw[nl:]


@FUZZ
@given(data=st.data())
def test_mutated_checkpoint_loads_or_raises_package_error(trained, tmp_path, capsys, data):
    base, _, raw = trained
    p = tmp_path / "model.ckpt"
    p.write_bytes(data.draw(mutated_checkpoints(raw)))
    try:
        dif.load_checkpoint(p)
        rejected = False
    except ScendiffError as e:
        assert isinstance(e, ModelValidationError)
        rejected = True
    capsys.readouterr()
    rc = main(["generate", "--config", str(base / "cfg.json"), "--checkpoint", str(p),
               "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    _assert_reported(rc, err, (4,) if rejected else (2, 3, 4))


@st.composite
def mutated_configs(draw, cfg):
    """`cfg` with one key renamed to a name its object lacks, or one value
    (an object included) replaced."""
    cfg = copy.deepcopy(cfg)
    path = draw(st.sampled_from(list(_paths(cfg, 3))))
    parent = _parent(cfg, path)
    if draw(st.booleans()):
        name = draw(st.text(max_size=8))
        assume(name not in parent)
        parent[name] = parent.pop(path[-1])
    else:
        parent[path[-1]] = draw(VALUES)
    return cfg


@FUZZ
@given(data=st.data())
def test_mutated_config_loads_or_raises_package_error(trained, tmp_path, capsys, data):
    _, cfg, _ = trained
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(data.draw(mutated_configs(cfg))))
    try:
        cli.load_config(str(p))
        rejected = False
    except ScendiffError as e:
        assert isinstance(e, cli.ConfigError)
        rejected = True
    capsys.readouterr()
    rc = main(["train", "--config", str(p), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    _assert_reported(rc, err, (2,) if rejected else (2, 3))


# one entry of a scaler list: numbers at and past each field's limits too
ENTRIES = st.one_of(VALUES, st.sampled_from([float("-inf"), 1.3, 1e-300, -1e-300, 10**400]))


def _scaler_holds(sc: dict, header: dict) -> bool:
    """The scaler rules restated: the scaler's track is the header's, one of
    TRACKS; learn_max finite (> 0 for load); target_scale, 1 / learn_max for
    load and 1 otherwise, finite;
    one finite covariate offset and scale per cond_dim / 24 channel, scales
    > 0; 24 pinned hours, each null or in [0, 1] (load: [0, 1.2 learn_max])."""
    try:
        track, top = sc["track"], float(sc["learn_max"])
        offset = np.asarray(sc["cov_offset"], dtype=float)
        cov_scale = np.asarray(sc["cov_scale"], dtype=float)
        fixed = np.array([math.nan if v is None else float(v) for v in sc["target_fixed"]])
    except (KeyError, TypeError, ValueError, OverflowError):
        return False
    load = track == "load"
    scale = 1.0 / top if load and top > 0 else 1.0
    hi = 1.2 * top if load else 1.0
    channels = (header["cond_dim"] // 24,)
    pinned = fixed[~np.isnan(fixed)]
    return (track in TRACKS and track == header["track"]
            and math.isfinite(top) and (top > 0 or not load) and math.isfinite(scale)
            and offset.shape == channels and bool(np.isfinite(offset).all())
            and cov_scale.shape == channels and bool(np.isfinite(cov_scale).all())
            and bool((cov_scale > 0).all())
            and fixed.shape == (24,) and bool(((pinned >= 0) & (pinned <= hi)).all()))


@st.composite
def mutated_scalers(draw, header):
    """`header` with one scaler field deleted or replaced, or one entry of a
    list field replaced."""
    header = copy.deepcopy(header)
    sc = header["scaler"]
    key = draw(st.sampled_from([f.name for f in dataclasses.fields(Scaler)]))
    how = draw(st.sampled_from(["replace", "delete", "entry"]))
    if how == "delete":
        del sc[key]
    elif how == "entry" and isinstance(sc[key], list):
        sc[key][draw(st.integers(0, len(sc[key]) - 1))] = draw(ENTRIES)
    else:
        sc[key] = draw(ENTRIES)
    return header


@FUZZ
@given(data=st.data(), track=st.sampled_from(["pv", "load"]))
def test_mutated_scaler_is_refused_unless_its_rules_hold(trained, tmp_path, capsys, data,
                                                         track):
    """load_checkpoint takes a scaler exactly when its values obey the rules,
    and generate reports a refused one as one JSON line with exit 4, with no
    RuntimeWarning on the way. The load variant relabels the pv file, which
    puts learn_max and the pinned hours under the load track's rules."""
    base, _, raw = trained
    nl = raw.find(b"\n")
    header = json.loads(raw[:nl])
    header["track"] = header["scaler"]["track"] = track
    header = data.draw(mutated_scalers(header))
    p = tmp_path / "model.ckpt"
    p.write_bytes(json.dumps(header).encode() + raw[nl:])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            dif.load_checkpoint(p)
            accepted = True
        except ModelValidationError:
            accepted = False
        assert accepted == _scaler_holds(header["scaler"], header)
        if accepted or track != "pv":
            return
        capsys.readouterr()
        rc = main(["generate", "--config", str(base / "cfg.json"), "--checkpoint", str(p),
                   "--out", str(tmp_path / "out")])
    assert rc == 4
    _assert_reported(rc, capsys.readouterr().err, (4,))
