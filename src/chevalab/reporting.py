"""Persistence and report plumbing: count records, JSON-lines journals, CSV
tables, and the per-run report object.  All writes are atomic (write to
temp, rename) and byte-reproducible for identical inputs; wall time lives in
``Report.wall_ms``, excluded from the determinism contract.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
from dataclasses import dataclass, field as dc_field
from typing import Dict, Iterable, List, Optional, Sequence

from .errors import BadConfig, IoError

SCHEMA_VERSION = 1
ENGINE_VERSION = "chevalab-0.1.0"


@dataclass
class CountRecord:
    schema_version: int
    n: int
    ell: int
    k: int
    m: int
    target: dict
    count: int
    shards: int = 1
    shard_id: Optional[int] = None
    engine_version: str = ENGINE_VERSION

    def to_json(self) -> str:
        d = dict(self.__dict__)
        d["count"] = str(self.count)
        return json.dumps(d, sort_keys=True)

    @staticmethod
    def from_json(line: str) -> "CountRecord":
        """The record of a line as ``to_json`` writes it; BadConfig for any other line."""
        try:
            d = json.loads(line)
            if not isinstance(d, dict):
                raise BadConfig("not a JSON object")
            d.pop("elapsed_ms", None)  # wall time that older records carried
            count = d["count"]
            if not (isinstance(count, str) and count.isascii() and count.isdigit()
                    and str(int(count)) == count):
                raise BadConfig(f"count {count!r} is not a non-negative decimal string")
            for key in ("n", "ell", "k", "m", "shards", "shard_id"):
                # bool is an int subclass, so isinstance would pass True; shard_id may be null
                if key in d and type(d[key]) is not int and (key != "shard_id" or d[key] is not None):
                    raise BadConfig(f"{key} {d[key]!r} is not an integer")
            if not isinstance(d.get("target"), dict):
                raise BadConfig(f"target {d.get('target')!r} is not an object")
            return CountRecord(**(d | {"count": int(count)}))  # TypeError: a missing or unknown key
        except (BadConfig, ValueError, TypeError, KeyError) as exc:
            raise BadConfig(f"malformed count record: {exc}") from exc


@dataclass
class Report:
    experiment_id: str
    anchor: str  # short label tying the run to the claim it exercises
    inputs: dict
    outputs: dict
    verdicts: Dict[str, bool] = dc_field(default_factory=dict)
    wall_ms: int = 0

    def passed(self) -> bool:
        return all(self.verdicts.values())

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "experiment_id": self.experiment_id,
            "anchor": self.anchor,
            "inputs": self.inputs,
            "outputs": self.outputs,
            "verdicts": self.verdicts,
            "wall_ms": self.wall_ms,
        }


def atomic_write_text(path: str, text: str) -> None:
    """Write text to path verbatim: temp file, fsync, rename.  On failure the
    temp file is removed and path keeps its old content."""
    tmp, created = path + ".tmp", False
    try:
        with open(tmp, "w", newline="") as fh:
            created = True
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except OSError as exc:
        if created:  # a temp file that open refused is not ours to remove
            with contextlib.suppress(OSError):
                os.remove(tmp)
        raise IoError(f"cannot write {path}: {exc}") from exc


def emit_jsonl(records: Sequence[CountRecord], path: str) -> None:
    atomic_write_text(path, "".join(r.to_json() + "\n" for r in records))


def load_jsonl(path: str) -> List[CountRecord]:
    try:
        with open(path, encoding="utf-8") as fh:
            return [CountRecord.from_json(line) for line in fh if line.strip()]
    except UnicodeDecodeError as exc:
        raise BadConfig(f"{path} is not UTF-8 text: {exc}") from exc
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc


def emit_csv(rows: Iterable[Sequence], header: Sequence[str], path: str) -> None:
    """Write header and rows (each a sequence in header order) as one CSV file,
    quoting the fields that need it."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    atomic_write_text(path, buf.getvalue())


def emit(records: Sequence[CountRecord], fmt: str, path: str) -> None:
    """Persist count records as JSONL (machine use) or CSV (tables)."""
    if fmt == "json":
        emit_jsonl(records, path)
    elif fmt == "csv":
        rows = [[r.n, r.ell, r.k, r.m, json.dumps(r.target, sort_keys=True), str(r.count), r.shards,
                 "" if r.shard_id is None else r.shard_id] for r in records]
        emit_csv(rows, ["n", "ell", "k", "m", "target", "count", "shards", "shard_id"], path)
    else:
        raise IoError(f"unknown format {fmt!r}")
