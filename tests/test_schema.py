"""The config schema: every field of the five configs is parsed by its
annotation and its range, in code and from scenario files alike."""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import io
import json
import math
import tempfile
import types
import typing
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from socsim import cli
from socsim.harness import Scenario, scenario_from_dict
from socsim.mobility import MobilityConfig
from socsim.netsim import NetConfig
from socsim.percept import GmmModel, PerceptConfig
from socsim.protocol import ProtocolConfig
from socsim.schema import AGENT_ID, AgentId, SchemaError

ROOT = Path(__file__).parent.parent
QUICK = json.loads((ROOT / "scenarios" / "quick.json").read_text())

# where each config's fields sit in a scenario file
SECTIONS = {
    Scenario: (),
    MobilityConfig: ("source", "mobility"),
    ProtocolConfig: ("protocol",),
    NetConfig: ("net",),
    PerceptConfig: ("percept",),
}
FIELDS = [
    pytest.param(path + (f.name,), hints[f.name], f.metadata, id=".".join(path + (f.name,)))
    for cls, path in SECTIONS.items()
    for hints in [typing.get_type_hints(cls)]
    for f in dataclasses.fields(cls)
]

TEXT = st.text(max_size=4)
LISTS = st.lists(st.integers(-3, 3), max_size=2)
DICTS = st.dictionaries(st.text(max_size=2), st.integers(), max_size=2)
NUMBERS = st.one_of(st.integers(), st.floats())
NOT_A_LIST = st.one_of(TEXT, st.none(), st.booleans(), NUMBERS, DICTS)
# anything but an object
SECTION_JUNK = st.one_of(TEXT, st.none(), st.booleans(), NUMBERS, LISTS)


def good(hint, within):
    """One valid JSON value of ``hint`` that lies ``within``."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        return good(args[0], within)
    if origin in (tuple, frozenset):
        return [good(a, within) for a in _items(origin, args)]
    if hint is bool:
        return False
    if hint is AgentId:
        return 1000
    if hint is int:
        return 1
    return next(x for x in (0.5, 1.0, 0.0) if within is None or within[0](x))


def _items(origin, args):
    return args[:1] if origin is frozenset or args[-1] is Ellipsis else args


def outside(within, numbers):
    """Numbers, of a valid type, that miss the range ``within``."""
    return numbers.filter(lambda v: not within[0](v))


def bad(hint, within, keys=None):
    """JSON values of the wrong type for ``hint``, or outside its ranges."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        if type(None) not in args:  # a union of sections
            return SECTION_JUNK
        return bad(args[0], within).filter(lambda v: v is not None)
    if origin is typing.Literal:
        return st.one_of(TEXT.filter(lambda v: v not in args), st.none(), NUMBERS, LISTS)
    if origin in (tuple, frozenset):
        items = _items(origin, args)
        template = [good(a, within) for a in items]

        @st.composite
        def one_bad_item(draw):
            value = list(template)
            i = draw(st.integers(0, len(items) - 1))
            value[i] = draw(bad(items[i], within))
            return value

        fixed = origin is tuple and args[-1] is not Ellipsis
        lengths = [st.just(template + template[:1])] if fixed else []
        return st.one_of(NOT_A_LIST, one_bad_item(), *lengths)
    if origin is dict:
        not_ints = st.sampled_from(["a", "2.5", "", "-"])
        bad_keys = st.one_of(not_ints, outside(keys, st.integers()).map(str))
        return st.one_of(
            SECTION_JUNK,
            bad_keys.map(lambda k: {k: 1.0}),
            bad(args[1], within).map(lambda v: {"2": v}),
        )
    junk = st.one_of(TEXT, st.none(), LISTS, DICTS)
    if hint is bool:
        return st.one_of(junk, NUMBERS)
    if hint in (int, AgentId):
        ints = st.one_of(st.integers(), st.integers(max_value=-1), st.integers(2**63, 2**70))
        ranges = [r for r in (within, AGENT_ID if hint is AgentId else None) if r is not None]
        out = [ints.filter(lambda v: not all(r[0](v) for r in ranges))] if ranges else []
        fractions = st.floats().filter(lambda v: not v.is_integer())
        return st.one_of(junk, st.booleans(), fractions, *out)
    if hint is float:
        edges = st.sampled_from([math.nan, math.inf, -math.inf, -1, -1e-12, 0, 1, 1.5, 1e308])
        return st.one_of(junk, st.booleans(), outside(within, st.one_of(edges, st.floats())))
    # a section, or a fitted model, which no file can carry
    return st.one_of(SECTION_JUNK, DICTS) if hint is GmmModel else SECTION_JUNK


def simulate(config) -> tuple[int, str]:
    """Exit code and stderr of ``socsim simulate`` on ``config``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(config))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(["simulate", "--config", str(path), "--out-dir", f"{tmp}/out"])
    return code, err.getvalue()


def with_value(path: tuple[str, ...], value) -> dict:
    config = copy.deepcopy(QUICK)
    node = config
    for part in path[:-1]:
        node = node.setdefault(part, {})
    node[path[-1]] = value
    return config


@pytest.mark.parametrize("path, hint, metadata", FIELDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_every_bad_field_value_exits_one_naming_its_key(path, hint, metadata, data):
    value = data.draw(bad(hint, metadata.get("range"), metadata.get("keys")), label="value")
    code, err = simulate(with_value(path, value))
    assert code == 1, err
    assert err.startswith("config error: ")
    assert f": {'.'.join(path)} " in err


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("gzip_log",), "false", "gzip_log must be true or false, got 'false'"),
        (("seed",), 7.9, "seed must be a whole number, got 7.9"),
        (("duration",), "60", "duration must be a number, got '60'"),
        (("protocol", "stable_handover"), "no", "protocol.stable_handover must be true or false"),
        (("protocol", "denial_ttl"), True, "protocol.denial_ttl must be a number, got True"),
        (("net", "latency"), True, "net.latency must be a whole number, got True"),
        (
            ("source", "mobility", "label_waiting_phase"),
            "yes",
            "source.mobility.label_waiting_phase must be true or false",
        ),
        (("agentless_ids",), [2.9], "agentless_ids must be a whole number, got 2.9"),
        (("opinion_providers",), [[-5, 1.0, 1.0]], "opinion_providers must be an agent id"),
        (("opinion_providers",), [[2**64, 1.0, 1.0]], "opinion_providers must be an agent id"),
        (("source", "mobility", "n_agents"), 8.5, "source.mobility.n_agents must be a whole"),
        (("source", "mobility", "seed"), 3.5, "source.mobility.seed must be a whole number"),
        (("source", "mobility", "n_agents"), True, "source.mobility.n_agents must be a whole"),
    ],
)
def test_wrong_typed_probe_exits_one(path, value, message):
    code, err = simulate(with_value(path, value))
    assert code == 1
    assert err.startswith(f"config error: invalid scenario config: {message}")


def test_integer_spelt_float_field_writes_the_same_bytes(tmp_path):
    outputs = []
    for period in (1, 1.0):
        config = tmp_path / f"period_{period!r}.json"
        config.write_text(json.dumps({**QUICK, "duration": 20.0, "protocol": {"period": period}}))
        out = tmp_path / f"out_{period!r}"
        assert cli.main(["simulate", "--config", str(config), "--out-dir", str(out)]) == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert outputs[0] == outputs[1]
    assert set(outputs[0]) >= {"metrics.csv", "partitions.csv", "messages.log"}


def test_fields_are_parsed_in_code_and_from_files_alike():
    built = ProtocolConfig(period=2, u_min=0)
    assert type(built.period) is float and type(built.u_min) is float
    mob = MobilityConfig(area=[40, 40], group_size_distribution={2: 1}, seed=5.0)
    assert mob.area == (40.0, 40.0) and type(mob.seed) is int
    raw = {"source": {"type": "synthetic", "mobility": {"group_size_distribution": {"3": 1}}}}
    assert scenario_from_dict(raw).source.mobility.group_size_distribution == {3: 1.0}
    source = scenario_from_dict(raw).source
    assert Scenario(source=source, agentless_ids=[4]).agentless_ids == frozenset({4})
    with pytest.raises(SchemaError, match=r"^latency must be a whole number, got 1\.5$"):
        NetConfig(latency=1.5)
    with pytest.raises(SchemaError, match=r"^model must be one of 'parametric', 'gmm', got 'x'$"):
        PerceptConfig(model="x")


@pytest.mark.parametrize(
    "path",
    [
        ("source", "mobilty"),
        ("source", "mobility", "n_agent"),
        ("protocol", "perod"),
        ("percept", "modle"),
    ],
)
def test_misspelt_key_exits_one_naming_it(path):
    code, err = simulate(with_value(path, {}))
    assert code == 1
    assert err.startswith("config error: ") and repr(path[-1]) in err


def test_misspelt_replay_source_key_exits_one(tmp_path, capsys):
    fixtures = ROOT / "scenarios" / "fixtures"
    config = json.loads((ROOT / "scenarios" / "triads.json").read_text())
    config["source"] = {"type": "replay", "trace": str(fixtures / "triads_trace.csv"), "truth": "x"}
    path = tmp_path / "replay.json"
    path.write_text(json.dumps(config))
    assert cli.main(["replay", "--config", str(path), "--out-dir", str(tmp_path / "out")]) == 1
    assert "'truth'" in capsys.readouterr().err


def test_seed_override_follows_the_schema(tmp_path, capsys):
    config = tmp_path / "quick.json"
    config.write_text(json.dumps(QUICK))
    args = ["simulate", "--config", str(config), "--seed", "-1", "--out-dir", str(tmp_path / "out")]
    assert cli.main(args) == 1
    assert capsys.readouterr().err == "config error: seed must be non-negative and finite, got -1\n"
