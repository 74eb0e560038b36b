"""Config-driven scenario running and export.

Configs are YAML documents with a `kind` key, an optional `seed`, and a
payload block named after the kind. Validation is strict: unknown keys are
rejected with their full path, types are checked, and size caps raise
capacity errors before any computation starts. Runs produce a RunRecord:
summary metrics plus named tables of columns, all of plain Python values
(never numpy scalars). `write_outputs`, the one serializer, streams CSV,
where floats carry 17 significant digits, or JSON lines, where they carry
the shortest repr that reads back to the same double; either way a
parse-back is lossless. The record embeds a digest of the canonicalized
config.

This module holds what every kind shares: the strict-schema helpers, the
parse, the records, the kind registry and the writers. Each kind's
validator and runner live in `stgames.kinds.<kind>`, which the kind's first
`parse_scenario` or `run_scenario` imports, so a process compiles and
executes the code of the kinds it runs and of no other (see
`stgames.kinds`).
"""

from __future__ import annotations

import importlib
import itertools
import json
import math
import time
from typing import NamedTuple

import yaml

from .errors import CapacityError, SchemaError

# SHA-256 from CPython's own module, as `random` takes SHA-512: `hashlib`
# would load OpenSSL (`_hashlib`) as well. The module is `_sha256` up to
# Python 3.11 and `_sha2` from 3.12; `hashlib` only where neither was built.
try:
    from _sha256 import sha256 as _sha256
except ImportError:
    try:
        from _sha2 import sha256 as _sha256
    except ImportError:
        from hashlib import sha256 as _sha256


# bytes of document text `parse_scenario` reads. Loading costs about 3.5 s
# and 115 MB of peak memory per MB of text (2-vCPU Xeon VM), so a document
# at the cap parses in about 4 s.
MAX_DOCUMENT_BYTES = 2 ** 20


# --- strict-schema helpers ----------------------------------------------------

def _fail(path, message):
    raise SchemaError(message, path)


def _make(path, build, *args, **kwargs):
    """`build(*args, **kwargs)`, with a ValueError or a CapacityError
    reported at `path`."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        _fail(path, str(exc))
    except CapacityError as exc:
        raise CapacityError(f"{path}: {exc}") from None


def _need_map(node, path, required=(), optional=()):
    if not isinstance(node, dict):
        _fail(path, f"expected a map, got {type(node).__name__}")
    allowed = set(required) | set(optional)
    for key in node:
        if key not in allowed:
            _fail(f"{path}.{key}" if path else str(key),
                  f"unknown key (allowed: {sorted(allowed)})")
    for key in required:
        if key not in node:
            _fail(path, f"missing required key {key!r}")
    return node


def _need_list(node, path, min_len=0):
    if not isinstance(node, list):
        _fail(path, f"expected a list, got {type(node).__name__}")
    if len(node) < min_len:
        _fail(path, f"expected at least {min_len} entries, got {len(node)}")
    return node


def _need_number(node, path, lo=None, hi=None):
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        _fail(path, f"expected a number, got {node!r}")
    try:
        v = float(node)
    except OverflowError:            # an integer beyond the double range
        v = math.inf
    if not math.isfinite(v):
        _fail(path, f"expected a finite number, got {v}")
    if lo is not None and v < lo:
        _fail(path, f"must be >= {lo}, got {v}")
    if hi is not None and v > hi:
        _fail(path, f"must be <= {hi}, got {v}")
    return v


def _need_vector(node, path, length, lo=None):
    """A list of exactly `length` numbers, as floats."""
    if len(_need_list(node, path)) != length:
        _fail(path, f"needs {length} entries")
    return [_need_number(v, f"{path}[{i}]", lo) for i, v in enumerate(node)]


def _need_at_most(count, cap, path, what):
    """A capacity error, exit 3, when `count` of `what` exceeds `cap`."""
    if count > cap:
        raise CapacityError(f"{path}: {count} {what} exceed {cap}")


def _need_int(node, path, lo=None, hi=None):
    if isinstance(node, bool) or not isinstance(node, int):
        _fail(path, f"expected an integer, got {node!r}")
    if lo is not None and node < lo:
        _fail(path, f"must be >= {lo}, got {node}")
    if hi is not None and node > hi:
        _fail(path, f"must be <= {hi}, got {node}")
    return node


def _need_str(node, path, choices=None):
    if not isinstance(node, str):
        _fail(path, f"expected a string, got {node!r}")
    if choices is not None and node not in choices:
        _fail(path, f"must be one of {sorted(choices)}, got {node!r}")
    return node


def _need_bool(node, path):
    if not isinstance(node, bool):
        _fail(path, f"expected true/false, got {node!r}")
    return node


# --- parsed scenario ------------------------------------------------------------

class ScenarioConfig(NamedTuple):
    kind: str
    seed: int | None
    payload: dict           # the runner's inputs, built from the document
    canonical: str          # canonical JSON of the whole normalized document
    digest: str


# libyaml's parser where PyYAML was built with it. Both loaders share the
# resolver and SafeConstructor, so they build equal documents; only the
# wording of syntax errors differs.
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def parse_scenario(text: str, seed_override=None) -> ScenarioConfig:
    """Parse + validate a YAML scenario document (strict keys, typed values)."""
    size = len(text.encode("utf-8"))
    if size > MAX_DOCUMENT_BYTES:
        raise CapacityError(f"document is {size} bytes, over the cap of "
                            f"{MAX_DOCUMENT_BYTES}")
    try:
        doc = yaml.load(text, Loader=_LOADER)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}" if mark is not None else ""
        raise SchemaError(f"syntax error{where}: {exc}") from exc
    if not isinstance(doc, dict):
        _fail("", "document must be a map")
    kind = _need_str(doc.get("kind"), "kind", KINDS)
    _need_map(doc, "", required=("kind", kind), optional=("seed", "name"))
    seed = None
    for given in (doc.get("seed"), seed_override):      # the override wins
        if given is not None:
            seed = _need_int(given, "seed", lo=0, hi=2 ** 64 - 1)
    if "name" in doc:
        _need_str(doc["name"], "name")
    block, payload = _kind_module(kind).validate(doc[kind], kind)
    normalized = {"kind": kind, "seed": seed, kind: block}
    if "name" in doc:
        normalized["name"] = doc["name"]
    canonical = json.dumps(normalized, sort_keys=True, separators=(",", ":"),
                           allow_nan=False)
    digest = _sha256(canonical.encode("utf-8")).hexdigest()
    if REGISTRY[kind].stochastic and seed is None:
        raise SchemaError(f"kind {kind!r} is stochastic and needs a seed", "seed")
    return ScenarioConfig(kind, seed, payload, canonical, digest)


# --- run records -----------------------------------------------------------------

class Table(NamedTuple):
    """One named trace table: its column names, and in `data` one sequence
    of cells per column (a list, a range or a tuple), all the same length.
    A cell is a str, int, float, bool or None."""
    name: str
    columns: tuple
    data: tuple


class RunRecord(NamedTuple):
    kind: str
    digest: str
    seed: int | None
    summary: dict
    tables: tuple = ()

    def table(self, name):
        for t in self.tables:
            if t.name == name:
                return t
        raise KeyError(name)


# --- kind registry -------------------------------------------------------------------

class Kind(NamedTuple):
    """One scenario kind: its help text, and whether it needs a seed.

    Its validator and runner are `validate` and `run` in
    `stgames.kinds.<kind>`.
    """
    help: str
    stochastic: bool = False


REGISTRY = {
    "coop": Kind("coalition values: Shapley, core, nucleolus"),
    "match": Kind("two-sided matching via deferred acceptance"),
    "nash": Kind("pure equilibria, welfare and price of anarchy"),
    "learn": Kind("learning dynamics on a strategic game", True),
    "ttscale": Kind("slow coordinator over fast learning epochs", True),
    "stackelberg": Kind("leader signal choice against follower equilibria"),
    "wardrop": Kind("routing equilibrium, optimum, Braess delta, tolls"),
    "incentive": Kind("minimal transfers making a target profile stable"),
    "resilience": Kind("consensus under adversarial reports", True),
}
KINDS = tuple(REGISTRY)
STOCHASTIC_KINDS = tuple(k for k, spec in REGISTRY.items() if spec.stochastic)


def _kind_module(kind):
    """`stgames.kinds.<kind>`, imported on the kind's first use."""
    return importlib.import_module(f"{__package__}.kinds.{kind}")


def run_scenario(cfg: ScenarioConfig) -> RunRecord:
    return _kind_module(cfg.kind).run(cfg, **cfg.payload)


# --- export ----------------------------------------------------------------------

def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isnan(value) or math.isinf(value):
            return str(value)
        return "%.17g" % value
    return str(value)


def _csv_cell(value):
    s = _fmt(value)
    if any(ch in s for ch in ",\"\n"):
        s = '"' + s.replace('"', '""') + '"'
    return s


def _json_value(value):
    if isinstance(value, float):
        if math.isnan(value):
            return "NaN"
        if math.isinf(value):
            return "Infinity" if value > 0 else "-Infinity"
    if isinstance(value, (list, tuple)):
        return [_json_value(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_value(v) for k, v in value.items()}
    return value


def _csv_files(record: RunRecord):
    """(stem suffix, lines) per CSV data file: summary plus one per table.

    Comma delimiter, dot decimal, header row, LF endings; an empty table
    yields a header-only file. Floats carry 17 significant digits, and a
    list or map in the summary is embedded as JSON. Each line is formatted
    only when it is read.
    """
    def summary():
        yield "key,value\n"
        for key, value in [("kind", record.kind), ("digest", record.digest),
                           ("seed", record.seed), *sorted(record.summary.items())]:
            if isinstance(value, (list, dict)):
                value = json.dumps(_json_value(value), sort_keys=True)
            yield f"{_csv_cell(key)},{_csv_cell(value)}\n"

    def table_lines(table):
        yield ",".join(table.columns) + "\n"
        for row in zip(*table.data):
            yield ",".join(_csv_cell(v) for v in row) + "\n"

    return [("summary", summary())] + [(t.name, table_lines(t)) for t in record.tables]


def _jsonl_files(record: RunRecord):
    """(stem suffix, lines) per JSON-lines data file, like `_csv_files`.

    The summary file holds a single object; table files hold one object per
    row keyed by column name. Floats are written as the shortest repr that
    reads back to the same double (`0.1`, not 17 digits), so parsing them
    back reproduces the doubles exactly.
    """
    header = {"kind": record.kind, "digest": record.digest,
              "seed": record.seed, "summary": record.summary,
              "tables": [t.name for t in record.tables]}

    def line(obj):
        return json.dumps(_json_value(obj), sort_keys=True, separators=(",", ":")) + "\n"

    def table_lines(table):
        for row in zip(*table.data):
            yield line(dict(zip(table.columns, row)))

    return [("summary", [line(header)])] + [(t.name, table_lines(t)) for t in record.tables]


# lines joined into one write: large enough to amortize each call, small
# enough that no data file is ever held whole in memory
_WRITE_BLOCK = 256


def write_outputs(record: RunRecord, out_dir, stem, fmt="csv"):
    """Write summary + per-table data files plus a meta sidecar.

    Returns the paths written. meta.json holds wall-clock and version facts
    and is the only file excluded from determinism comparisons; the data
    files are byte-stable for a fixed (config, seed).
    """
    import os

    if fmt == "csv":
        files, ext = _csv_files(record), "csv"
    elif fmt == "jsonl":
        files, ext = _jsonl_files(record), "jsonl"
    else:
        raise ValueError(f"unknown format {fmt!r}")
    try:
        os.makedirs(out_dir, exist_ok=True)
        paths = []
        for suffix, lines in files:
            path = os.path.join(out_dir, f"{stem}.{suffix}.{ext}")
            lines = iter(lines)
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                while block := "".join(itertools.islice(lines, _WRITE_BLOCK)):
                    fh.write(block)
            paths.append(path)
        from . import __version__

        meta = {"written_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
                "note": "wall-clock and version live here so data files stay deterministic",
                "version": __version__, "kind": record.kind,
                "digest": record.digest}
        meta_path = os.path.join(out_dir, f"{stem}.meta.json")
        with open(meta_path, "w", encoding="utf-8") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
            fh.write("\n")
        paths.append(meta_path)
    except OSError as exc:
        raise OSError(f"writing {out_dir!r}: {exc}") from exc
    return paths
