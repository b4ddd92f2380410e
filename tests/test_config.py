"""The config walker against jsonschema's Draft 2020-12 validator.

validate_config checks SCHEMA with a walker over the keywords SCHEMA
uses. jsonschema stays a test dependency as the reference: on seeded
mutations of valid configs, both must accept or reject alike, and on a
reject name the same first error (path and message). The one deviation
is an integral float in an ``integer`` slot, which JSON Schema accepts
and the walker rejects; it has its own test.
"""

import copy
import json

import jsonschema
import numpy as np
import pytest

from climfact import cli, config
from climfact.config import SCHEMA, validate_config
from climfact.errors import ConfigError

_REFERENCE = jsonschema.Draft202012Validator(SCHEMA)

# every section and key of SCHEMA, each set to a valid value
_FULL = {
    "seed": 3,
    "output_dir": "out",
    "grids": [
        {"name": "t", "path": "t.csv", "step": 0.5, "weighting": "coslat"},
        {"name": "p", "path": "p.sgf", "step": [0.5, 1.0],
         "weighting": "uniform"},
    ],
    "panels": {
        "sectors": {"path": "s.csv", "transform": "yoy"},
        "controls": {"path": "c.csv", "transform": "none"},
        "endogenous": {"path": "e.csv"},
    },
    "regions": [{"name": "ALL", "cells": "all"}, {"name": "R", "path": "r.csv"}],
    "baseline": {"reference_window": [1961, 1990]},
    "anomaly": {"variables": ["t"], "write_grids": True},
    "shocks": {"variable": "t", "region": "ALL", "threshold": "auto",
               "threshold_window": [2001, 2021], "extreme_multiplier": 1.5,
               "variants": ["all", "summer", "extreme"]},
    "lp": {"h_max": 12, "p_max": 4, "l_max": 2, "r": 0,
           "lag_selection": "aic", "ci_level": 0.9,
           "contemporaneous_controls": False, "sectors": ["A", "B"],
           "figures": True},
    "factors": {"variable": "t", "use_anomalies": True, "tol": 1e-8, "k": 2,
                "permutation": {"n": 99, "level": 0.05}},
    "fira": {"variable": "t", "use_anomalies": False, "lags": [2, 1, 0],
             "h_max": 6, "tol": 0.01, "k": 3, "standardize": True,
             "permutation": True,
             "shocks": [{"magnitude": -1.0, "center": [50.0, 10.0],
                         "radius_km": 200.0, "profile": "cosine-taper"}]},
    "synth": {"kind": "fira-demo", "step": 0.5, "years": [1950, 2021],
              "warming": 1.3, "format": "binary", "sectors": 6,
              "months": 252, "snr": 2.0},
}

# no integral float: JSON Schema takes 2.0 as an integer, the walker not
_WRONG_TYPES = ("x", "", 7, -2, 0, 2.5, -0.5, True, False, None, [], [1],
                ["x"], {}, {"a": 1})
_UNKNOWN_KEYS = ("bogus", "region", "Seed", "steps", "a", "zz")


def _reference(doc):
    """The message validate_config gives for jsonschema's first error."""
    errors = sorted(_REFERENCE.iter_errors(doc), key=lambda e: list(e.path))
    if not errors:
        return None
    where = "/".join(map(str, errors[0].path)) or "(top level)"
    return f"config key {where}: {errors[0].message}"


def _walker(doc):
    try:
        validate_config(doc)
    except ConfigError as exc:
        return str(exc)
    return None


def _sites(node, schema, path=()):
    """(path, schema) of every place in node, descending into each anyOf
    branch the node meets."""
    yield path, schema
    for branch in schema.get("anyOf", ()):
        if jsonschema.Draft202012Validator(branch).is_valid(node):
            yield from _sites(node, branch, path)
    if isinstance(node, dict):
        for key, sub in schema.get("properties", {}).items():
            if key in node:
                yield from _sites(node[key], sub, path + (key,))
    if isinstance(node, list) and "items" in schema:
        for i, item in enumerate(node):
            yield from _sites(item, schema["items"], path + (i,))


def _set(doc, path, value):
    if not path:
        return value
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _bound_edges(schema):
    integer = schema.get("type") == "integer"
    for keyword in ("minimum", "maximum", "exclusiveMinimum",
                    "exclusiveMaximum"):
        if keyword in schema:
            bound = schema[keyword]
            yield from ((bound - 1, bound, bound + 1) if integer else
                        (bound - 1e-9, bound, bound + 1e-9, -bound))


# each mutation: (applies to a site?, new value for the node there)
_MUTATIONS = {
    "drop required": (
        lambda node, s: isinstance(node, dict) and any(
            k in node for k in s.get("required", ())),
        lambda rng, node, s: {k: v for k, v in node.items() if k != rng.choice(
            [k for k in s["required"] if k in node])}),
    "unknown key": (
        lambda node, s: isinstance(node, dict) and "properties" in s,
        lambda rng, node, s: {**node, **dict.fromkeys(map(str, rng.choice(
            _UNKNOWN_KEYS, size=int(rng.integers(1, 3)), replace=False)), 1)}),
    "wrong type": (
        lambda node, s: True,
        lambda rng, node, s: copy.deepcopy(
            _WRONG_TYPES[rng.integers(len(_WRONG_TYPES))])),
    "enum miss": (
        lambda node, s: "enum" in s,
        lambda rng, node, s: str(rng.choice(["nope", "ALL", "Auto", " all"]))),
    "bound edge": (
        lambda node, s: any(k in s for k in (
            "minimum", "maximum", "exclusiveMinimum", "exclusiveMaximum")),
        lambda rng, node, s: rng.choice(list(_bound_edges(s))).item()),
    "short array": (
        lambda node, s: isinstance(node, list) and "minItems" in s,
        lambda rng, node, s: node[:int(rng.integers(s["minItems"]))]),
    "long array": (
        lambda node, s: isinstance(node, list) and "maxItems" in s,
        lambda rng, node, s: node + node[:1] * int(rng.integers(1, 3))),
}


def _mutated_configs(n, seed=20261018):
    """n (kinds, config) pairs, each config a valid one with 1 to 3
    mutations applied in turn."""
    rng = np.random.default_rng(seed)
    sections = [k for k in _FULL if isinstance(_FULL[k], dict)]
    out = []
    while len(out) < n:
        doc = copy.deepcopy(_FULL)
        for key in rng.permutation(sections)[:int(rng.integers(len(sections)))]:
            del doc[key]
        kinds = []
        for _ in range(int(rng.integers(1, 4))):
            kind = list(_MUTATIONS)[rng.integers(len(_MUTATIONS))]
            applies, mutate = _MUTATIONS[kind]
            sites = [(p, s) for p, s in _sites(doc, SCHEMA)
                     if applies(_get(doc, p), s)]
            if not sites:
                continue
            path, schema = sites[rng.integers(len(sites))]
            doc = _set(doc, path, mutate(rng, _get(doc, path), schema))
            kinds.append(kind)
        if kinds:
            out.append((kinds, doc))
    return out


def test_full_config_is_valid():
    assert _reference(_FULL) is None
    assert validate_config(copy.deepcopy(_FULL)) == _FULL


def test_walker_matches_jsonschema_on_mutated_configs():
    cases = _mutated_configs(300)
    verdicts = {True: 0, False: 0}
    kinds = set()
    for made, doc in cases:
        want = _reference(doc)
        assert _walker(doc) == want, (made, doc)
        verdicts[want is None] += 1
        kinds.update(made)
    assert kinds == set(_MUTATIONS)
    assert verdicts[False] >= 200 and verdicts[True] >= 10


def test_first_error_is_the_first_by_path():
    doc = copy.deepcopy(_FULL)
    doc["synth"]["months"] = 1
    doc["lp"]["bogus"] = 1
    doc["grids"][1]["step"] = [0.5]
    message = _walker(doc)
    assert message == _reference(doc)
    assert message.startswith("config key grids/1/step: [0.5] is not valid")


@pytest.mark.parametrize("path,value,message", [
    (("lp", "h_max"), 3.0, "lp/h_max: 3.0 is not of type 'integer'"),
    (("fira", "lags"), [0.0, 0, 0],
     "fira/lags/0: 0.0 is not of type 'integer'"),
    (("fira", "h_max"), 2.0, "fira/h_max: 2.0 is not of type 'integer'"),
    (("seed",), 7.0, "seed: 7.0 is not of type 'integer'"),
    (("factors", "permutation"), {"n": 99.0},
     "factors/permutation: {'n': 99.0} is not valid under any"),
    (("synth", "months"), 240.0,
     "synth/months: 240.0 is not of type 'integer'"),
])
def test_integral_float_is_the_one_deviation(path, value, message):
    """JSON Schema counts 3.0 as an integer; the library needs an int,
    so the walker rejects it and names the key."""
    doc = _set(copy.deepcopy(_FULL), path, value)
    assert _REFERENCE.is_valid(doc)
    with pytest.raises(ConfigError) as info:
        validate_config(doc)
    assert str(info.value).startswith(f"config key {message}")


def test_schema_uses_only_keywords_the_walker_handles():
    used, types, enums, additional = set(), set(), [], []

    def walk(schema):
        used.update(schema)
        types.add(schema.get("type", "object"))
        enums.extend(schema.get("enum", ()))
        additional.append(schema.get("additionalProperties", False))
        for sub in (*schema.get("properties", {}).values(),
                    *schema.get("anyOf", ()),
                    *([schema["items"]] if "items" in schema else ())):
            walk(sub)

    walk(SCHEMA)
    assert used <= set(config._KEYWORDS)
    assert types <= set(config._TYPES)
    # the enum check compares strings, and extra keys are always refused
    assert all(isinstance(value, str) for value in enums)
    assert set(additional) == {False}


@pytest.fixture(scope="module")
def factor_inputs(tmp_path_factory):
    """A small fira-demo grid and sector panel, with their config keys."""
    root = tmp_path_factory.mktemp("factor_inputs")
    path = root / "synth.json"
    path.write_text(json.dumps({
        "output_dir": str(root / "data"),
        "synth": {"kind": "fira-demo", "step": 0.5, "months": 120,
                  "sectors": 4}}))
    assert cli.main(["synth", "--config", str(path), "--quiet"]) == 0
    return {
        "grids": [{"name": "t",
                   "path": str(root / "data" / "temperature_anomaly.csv")}],
        "panels": {"sectors": {"path": str(root / "data" / "sectors.csv"),
                               "transform": "none"}},
    }


_SECTIONS = {
    "factors": {"variable": "t", "use_anomalies": False},
    "fira": {"variable": "t", "use_anomalies": False, "h_max": 1,
             "shocks": [{"magnitude": 1.0, "center": [53.0, 11.5],
                         "radius_km": 150.0}]},
}


@pytest.mark.parametrize("section", sorted(_SECTIONS))
@pytest.mark.parametrize("permutation", [True, {"n": 9}, False, {}])
def test_k_and_a_permutation_null_exclude_each_other(
        factor_inputs, tmp_path, capsys, section, permutation):
    """k fixes the component count, so a null set beside it would never
    run; the command refuses the pair instead of ignoring the null."""
    doc = dict(factor_inputs)
    doc[section] = dict(_SECTIONS[section], k=1, permutation=permutation)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    code = cli.main([section, "--config", str(path),
                     "--out", str(tmp_path / "out"), "--quiet"])
    if permutation is False:
        assert code == 0
        return
    assert code == 2
    assert capsys.readouterr().err == (
        f"config error: config keys {section}.k and {section}.permutation "
        f"exclude each other\n")
