"""Property: no run configuration makes the CLI raise.

Every generated config, valid or not, must end in exit code 0 (success),
1 (engine or numerical failure) or 2 (config error); a bad field must
never surface as a traceback.  A config file whose bytes are not a UTF-8
JSON text is a config error naming ``config``.  A state spec is a config
error on the CLI exactly when the library rejects it, with the same
message.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from modal_qcrb import ConfigError, PreconditionError, cli
from modal_qcrb.families import FAMILY_REGISTRY
from modal_qcrb.states import PROBE_KINDS, photon_statistics

# a valid value for every field a config may carry, by family and state kind
GEOMETRY = {
    "gaussian-beam": {"w0": st.floats(0.5, 2.0), "k": st.floats(2.0, 20.0)},
    "gaussian-beam-carrier": {"w0": st.floats(0.5, 2.0), "k": st.floats(2.0, 20.0)},
    "gaussian-pulse": {"omega0": st.floats(60.0, 200.0), "variance": st.floats(1.0, 25.0)},
    "displaced-beam": {"w0": st.floats(0.5, 2.0)},
}
STATES = {
    "coherent": {"nbar": st.floats(0.0, 3.0)},
    "fock": {"n": st.integers(0, 4)},
    "thermal": {"nbar": st.floats(0.0, 1.0)},
    "squeezed-vacuum": {"r": st.floats(-0.5, 0.5), "phi": st.floats(-3.0, 3.0)},
}
assert set(GEOMETRY) == set(FAMILY_REGISTRY)
assert set(STATES) == set(PROBE_KINDS)


def affordable(value) -> bool:
    """Leave out numbers that would be accepted as grids of millions of samples."""
    return not (isinstance(value, (int, float)) and 64 < abs(value) <= cli._MAX_GRID_POINTS)


# anything JSON can carry: numbers at the edges of double precision,
# integers beyond it, and values of the wrong type
ANY_VALUE = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0, -1, 1e-300, 1e200, 1e300, 2.5, 10**400, 10**5]),
    st.integers(-50, 50),
    st.none(),
    st.booleans(),
    st.text(max_size=4),
    st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(0, 3), max_size=2),
).filter(affordable)
# (section, key) of the entries a corruption may replace; key None is the
# whole section
TARGETS = [
    ("family", None),
    ("geometry", None),
    ("geometry", "w0"),
    ("geometry", "k"),
    ("geometry", "omega0"),
    ("geometry", "variance"),
    ("geometry", "extra"),
    ("state", None),
    ("state", "kind"),
    ("state", "nbar"),
    ("state", "n"),
    ("state", "r"),
    ("grid_points", None),
    ("fock_cutoff", None),
    ("fd_step", None),
    ("repetitions", None),
    ("derivative_method", None),
]


@st.composite
def configs(draw, command):
    """A valid config for the command, with up to three entries corrupted.

    ``detection-modes`` reads no probe, so its valid configs carry no state,
    and only ``qfim`` reads ``repetitions``.
    """
    family = draw(st.sampled_from(sorted(GEOMETRY)))
    config = {
        "family": family,
        "geometry": {key: draw(value) for key, value in GEOMETRY[family].items()},
        "grid_points": draw(st.integers(8, 40)),
    }
    if command != "detection-modes":
        kind = draw(st.sampled_from(sorted(STATES)))
        config["state"] = {"kind": kind} | {
            key: draw(value) for key, value in STATES[kind].items()
        }
    if draw(st.booleans()):
        config["fd_step"] = draw(st.floats(1e-6, 1e-2))
    if command == "qfim" and draw(st.booleans()):  # only qfim reads repetitions
        config["repetitions"] = draw(st.integers(1, 100))
    for section, key in draw(st.lists(st.sampled_from(TARGETS), max_size=3)):
        value = draw(ANY_VALUE)
        if key is None:
            config[section] = value
        elif isinstance(config.get(section), dict):
            config[section][key] = value
    return config


@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data(), command=st.sampled_from(["qfim", "attainability", "detection-modes"]))
def test_every_config_exits_0_1_or_2(data, command):
    config = data.draw(configs(command))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        code = cli.main([command, "--config", str(path), "--out", str(Path(tmp) / "out")])
    assert code in (0, 1, 2)


@st.composite
def corrupted_states(draw):
    """A valid state spec with up to two fields replaced or removed, or no object."""
    if draw(st.integers(0, 9)) == 0:
        return draw(ANY_VALUE)
    kind = draw(st.sampled_from(sorted(STATES)))
    state = {"kind": kind} | {key: draw(value) for key, value in STATES[kind].items()}
    for key in draw(st.lists(st.sampled_from(["kind", "nbar", "n", "r", "phi", "extra"]), max_size=2)):
        if draw(st.booleans()):
            state.pop(key, None)
        else:
            state[key] = draw(ANY_VALUE)
    return state


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(state=corrupted_states())
def test_cli_rejects_a_state_exactly_as_the_library_does(state):
    try:
        photon_statistics(state)
        rejected = None
    except ConfigError as exc:
        rejected = str(exc)
    except PreconditionError:  # an accepted spec whose statistics overflow
        rejected = None
    config = {"family": "displaced-beam", "geometry": {"w0": 1.0}, "state": state}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(["attainability", "--config", str(path), "--out", str(Path(tmp) / "out")])
    if rejected is None:
        assert code in (0, 1)
    else:
        assert rejected.startswith("state")
        assert code == 2 and err.getvalue() == f"config error: {rejected}\n"


# a config the CLI runs with exit 0 when its file holds the UTF-8 bytes
VALID_TEXT = json.dumps(
    {"family": "displaced-beam", "geometry": {"w0": 1.0}, "state": {"kind": "coherent", "nbar": 1.0}}
)
# config-file bytes that are not UTF-8 JSON: arbitrary binary, the valid
# text behind a UTF-8 byte-order mark or in UTF-16 with and without one,
# and arrays nested beyond the parser's recursion limit
CONFIG_BYTES = st.one_of(
    st.binary(max_size=64).filter(lambda raw: not raw.lstrip().startswith(b"{")),
    st.binary(max_size=16).map(lambda tail: b"\xef\xbb\xbf" + VALID_TEXT.encode() + tail),
    st.sampled_from(["utf-16", "utf-16-le", "utf-16-be"]).map(VALID_TEXT.encode),
    st.integers(10**4, 10**5).map(lambda depth: b"[" * depth),
)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(raw=CONFIG_BYTES)
def test_config_bytes_that_are_not_utf8_json_exit_2(raw):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_bytes(raw)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(["qfim", "--config", str(path), "--out", str(Path(tmp) / "out")])
    assert code == 2
    assert err.getvalue().startswith("config error: config: ")
    assert "Traceback" not in err.getvalue()
