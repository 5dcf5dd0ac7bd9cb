"""The package's own input checker against jsonschema as the oracle.

dists._first_error walks the JSON Schema subset that cli's SCHEMAS and
_HEADER and every battery's override schema use.  The reference below is
the jsonschema (Draft 2020-12) form it replaced: every valid config here,
thousands of seeded mutations of one valid config per kind, and seeded
mutations of each battery's defaults must get the same first error from
both.
"""
import copy
import functools
import json
import random
import re
from pathlib import Path
from unittest import mock

import pytest
from jsonschema import Draft202012Validator

from queuelab import cli, dists, scalestats

ROOT = Path(__file__).resolve().parents[1]


def reference_first_error(schema, doc):
    """_first_error as jsonschema computes it."""
    errs = sorted(Draft202012Validator(schema).iter_errors(doc),
                  key=lambda e: list(e.absolute_path))
    if not errs:
        return None
    e = errs[0]
    parts = [str(p) for p in e.absolute_path]
    if e.validator == "additionalProperties":  # name the unknown key
        parts.append(min(set(e.instance) - set(e.schema["properties"])))
    return (".".join(parts) or "(root)") + ": " + e.message


def outcome(first_error, doc):
    """validate_config's schema verdict: the header, then the kind's schema."""
    msg = first_error(cli._HEADER, doc)
    return msg or first_error(cli.SCHEMAS[doc["kind"]], doc)


PWLIN = {"pwlin": {"t": [0.0, 1.0, 2.0], "v": [1.0, 0.5, 1.0]}}

# one valid config per kind, each reaching its kind's optional blocks
VALID = {
    "sim": {"schema_version": 1, "kind": "sim",
            "model": {"N": 20, "service": {"family": "gamma", "shape": 2.0},
                      "arrival": {"kind": "inhom_poisson", "lambda_bar": PWLIN,
                                  "beta": {"affine": [0.0, 0.5]}},
                      "initial": {"x0": 3, "ages": [0.1, 0.5, 2.0]}},
            "numerics": {"T": 2.0},
            "run": {"seed": 1, "seeds": 2, "jobs": 1, "out": "o"}},
    "fluid": {"schema_version": 1, "kind": "fluid",
              "model": {"service": "exponential", "Ebar": {"const": 1.0},
                        "x0": 1.0,
                        "nu0": {"grid": {"x": [0.0, 1.0, 2.0],
                                         "p": [1.0, 0.5, 0.0]}}},
              "numerics": {"T": 1.0, "dt": 0.01},
              "run": {"out": "o"}},
    "limit": {"schema_version": 1, "kind": "limit",
              "model": {"service": {"family": "lognormal", "sigma": 0.5},
                        "arrival": {"kind": "renewal", "lambda_bar": 1.0,
                                    "beta": 0.5, "sigma2": 0.8},
                        "fluid": {"Ebar": 1.0, "x0": 1.0, "nu0": None},
                        "x0hat": 0.0,
                        "nu0hat": {"atoms": [[0.5, 0.1], [1.0, -0.1]]}},
              "numerics": {"T": 1.0, "dt": 0.01, "dx": 0.05, "x_max": 6.0},
              "run": {"seed": 0, "paths": 2, "jobs": 1, "noise_off": False,
                      "out": "o"}},
    "verify": {"schema_version": 1, "kind": "verify",
               "model": {"overrides": {"N": 50, "times": [0.5, 1.0]}},
               "run": {"out": "o"}},
    "dists": {"schema_version": 1, "kind": "dists",
              "model": {"service": {"family": "weibull", "shape": 1.5}},
              "numerics": {"T": 2.0, "dt": 0.01},
              "run": {"out": "o"}},
}

# values a mutation puts in place of another: every JSON type, the
# boundaries of the schemas' minimum / exclusiveMinimum, bool against
# number, integral float against integer, and the forms' own values
POOL = [None, True, False, 0, 1, 2, -1, 0.0, 0.5, 3.0, -0.5, 1e300, "",
        "x", "invariant", "renewal", "inhom_poisson", "sim", "limit", [],
        [1.0], [1.0, 2.0], [1.0, 2.0, 3.0], [[0.5, 0.1]], {}, {"const": 1.0},
        {"affine": [1.0, 0.5]}, {"invariant": 1.0}, {"x": [0.0], "p": [1.0]},
        {"kind": "renewal"}, {"kind": "inhom_poisson", "sigma2": 1.0}]


def bench_and_readme_configs():
    workloads = json.loads((ROOT / "bench" / "workloads.json").read_text())
    found = {name: w["config"] for name, w in workloads["workloads"].items()
             if w["entry"] == "cli.run"}
    blocks = re.findall(r"```json\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    found.update((f"readme-{i}", json.loads(b)) for i, b in enumerate(blocks))
    return found


def places(doc):
    """Every (parent, key) in doc, a dict key or a list index."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield doc, key
        if isinstance(value, (dict, list)):
            yield from places(value)


def mutate(doc, rng):
    """doc with one to three values replaced, keys deleted or unknown keys
    added, each at a place drawn from what the document then holds."""
    doc = copy.deepcopy(doc)
    for _ in range(rng.randint(1, 3)):
        parent, key = rng.choice(list(places(doc)))
        op = rng.random()
        if op < 0.6:
            parent[key] = copy.deepcopy(rng.choice(POOL))
        elif op < 0.8 and isinstance(parent, dict):
            del parent[key]
        else:
            target = parent[key] if isinstance(parent[key], dict) else parent
            if isinstance(target, dict):
                target[rng.choice(["bogus", "a", "zz", "X0", "seed"])] = 1
    return doc


class TestAgainstJsonschema:
    @pytest.mark.parametrize("name", sorted(VALID))
    def test_valid_configs_pass(self, name):
        assert outcome(cli._first_error, VALID[name]) is None
        assert outcome(reference_first_error, VALID[name]) is None
        assert cli.validate_config(VALID[name]).kind == name

    def test_bench_and_readme_configs(self):
        found = bench_and_readme_configs()
        assert {"sim-cli", "limit-cli", "readme-0"} <= set(found)
        for name, doc in found.items():
            assert outcome(cli._first_error, doc) is None, name
            assert outcome(reference_first_error, doc) is None, name
            for r in range(100):
                bad = mutate(doc, random.Random(r))
                assert outcome(cli._first_error, bad) \
                    == outcome(reference_first_error, bad), (name, r, bad)

    @pytest.mark.parametrize("kind", sorted(VALID))
    def test_mutations_agree(self, kind):
        # 2,000 seeded mutations per kind: the same verdict and the same
        # message, field path first, as jsonschema's
        rng, refused = random.Random(f"schema-{kind}"), 0
        for i in range(2000):
            bad = mutate(VALID[kind], rng)
            got, want = outcome(cli._first_error, bad), outcome(reference_first_error, bad)
            assert got == want, (i, bad)
            refused += got is not None
        assert refused > 1000, f"only {refused} of 2000 mutations were refused"


class _Caught(Exception):
    pass


@functools.cache
def battery_check(name):
    """(defaults, schema) of verify battery `name`'s override check, caught
    at the schema walk, before the battery runs anything."""
    seen, cfg = {}, scalestats._cfg

    def caught(schema, doc):
        seen["schema"] = schema
        raise _Caught

    def record(defaults, config, **bounds):
        seen["defaults"] = defaults
        return cfg(defaults, config, **bounds)

    with mock.patch.object(scalestats, "_first_error", caught), \
            mock.patch.object(scalestats, "_cfg", record), pytest.raises(_Caught):
        cli._BATTERIES[name]()
    return seen["defaults"], seen["schema"]


class TestBatteryOverrides:
    @pytest.mark.parametrize("name", sorted(cli._BATTERIES))
    def test_mutations_agree(self, name):
        # 300 seeded mutations of the battery's defaults, read as overrides
        defaults, schema = battery_check(name)
        assert dists._first_error(schema, defaults) is None
        assert reference_first_error(schema, defaults) is None
        rng, refused = random.Random(f"overrides-{name}"), 0
        for i in range(300):
            bad = mutate(defaults, rng)
            got = dists._first_error(schema, bad)
            assert got == reference_first_error(schema, bad), (i, bad)
            refused += got is not None
        assert refused > 150, f"only {refused} of 300 mutations were refused"

    def test_schema_follows_defaults_and_bounds(self):
        defaults, schema = battery_check("flln")
        assert schema["additionalProperties"] is False
        assert set(schema["properties"]) == set(defaults)
        assert schema["properties"]["Ns"] == {
            "type": "array", "minItems": 2,
            "items": {"type": "integer", "minimum": 1}}
        assert schema["properties"]["slope_band"] == {
            "type": "array", "minItems": 2, "maxItems": 2, "items": {"type": "number"}}
        assert schema["properties"]["service"] == {}
        _, schema = battery_check("insensitivity")
        assert schema["properties"]["services"] == {
            "type": "array", "minItems": 2, "items": {}}


class TestMessages:
    @pytest.mark.parametrize("where, value, message", [
        ("run.seeds", -1, "run.seeds: -1 is less than the minimum of 1"),
        ("run.bogus", 1, "run.bogus: Additional properties are not allowed "
                         "('bogus' was unexpected)"),
        ("numerics.T", 0, "numerics.T: 0 is less than or equal to the minimum of 0"),
        ("model.N", True, "model.N: True is not of type 'integer'"),
        ("model.N", 2.5, "model.N: 2.5 is not of type 'integer'"),
        ("model.initial.ages", "fresh", "model.initial.ages: 'fresh' is not valid "
                                        "under any of the given schemas"),
        ("model.arrival.kind", "markov", "model.arrival.kind: 'markov' is not one "
                                         "of ['renewal', 'inhom_poisson']"),
        ("model.arrival.sigma2", 1.0, "model.arrival.sigma2: Additional properties "
                                      "are not allowed ('sigma2' was unexpected)"),
        ("schema_version", True, "schema_version: 1 was expected"),
    ])
    def test_pinned(self, where, value, message):
        doc = copy.deepcopy(VALID["sim"])
        *parents, key = where.split(".")
        block = doc
        for name in parents:
            block = block[name]
        block[key] = value
        assert outcome(cli._first_error, doc) == message

    def test_required_and_short_lists(self):
        assert cli._first_error(cli._HEADER, {"kind": "sim"}) \
            == "(root): 'schema_version' is a required property"
        doc = copy.deepcopy(VALID["limit"])
        del doc["model"]
        doc["bogus"] = 1
        # an unknown root key outranks a missing block: keyword order
        assert cli._first_error(cli.SCHEMAS["limit"], doc) \
            == "bogus: Additional properties are not allowed ('bogus' was unexpected)"
        doc = copy.deepcopy(VALID["fluid"])
        doc["model"]["nu0"]["grid"]["x"] = []
        doc["model"]["zz"] = doc["model"]["a"] = 1
        assert cli._first_error(cli.SCHEMAS["fluid"], doc) == (
            "model.a: Additional properties are not allowed ('a', 'zz' were unexpected)")
        assert cli._first_error({"minItems": 1}, []) == "(root): [] should be non-empty"
        assert cli._first_error({"maxItems": 2}, [1, 2, 3]) \
            == "(root): [1, 2, 3] is too long"

    def test_json_equality_and_types(self):
        assert cli._first_error({"const": 1}, 1.0) is None
        assert cli._first_error({"const": 1}, True) == "(root): 1 was expected"
        assert cli._first_error({"enum": [0, "a"]}, False) \
            == "(root): False is not one of [0, 'a']"
        assert cli._first_error({"type": "integer", "minimum": 0}, 3.0) is None
        assert cli._first_error({"type": "number"}, False) \
            == "(root): False is not of type 'number'"
        # a keyword that does not apply to the value's type is skipped
        assert cli._first_error({"minimum": 1, "required": ["a"], "items": {}}, "s") is None


def schema_nodes(schema):
    """schema and every subschema inside it."""
    yield schema
    for key, arg in schema.items():
        if key == "properties":
            for sub in arg.values():
                yield from schema_nodes(sub)
        elif key in ("items", "if", "then"):
            yield from schema_nodes(arg)
        elif key in ("anyOf", "allOf"):
            for sub in arg:
                yield from schema_nodes(sub)


class TestKeywordGuard:
    def test_schemas_use_only_known_keywords(self):
        overrides = [battery_check(name)[1] for name in sorted(cli._BATTERIES)]
        for schema in [cli._HEADER, *cli.SCHEMAS.values(), *overrides]:
            for node in schema_nodes(schema):
                assert set(node) <= dists._KEYWORDS, set(node) - dists._KEYWORDS
                assert node.get("additionalProperties", False) is False
                for value in [node.get("const"), *node.get("enum", ())]:
                    assert not isinstance(value, (dict, list)), node

    def test_unknown_keyword_refused(self):
        with pytest.raises(ValueError, match="unsupported schema keyword pattern"):
            cli._first_error({"type": "string", "pattern": "^a"}, "abc")
        with pytest.raises(ValueError, match="additionalProperties"):
            cli._first_error({"additionalProperties": {"type": "number"}}, {})
