"""Spans around chevalab's public functions, patched in from the benchmark.

Each traced function is replaced in every chevalab namespace that holds it
(``counting.charpoly``, ``measure.fiber_table``, ``cli.count_sharded``, ...),
not only in its defining module, because callers look names up in their own
module.  Spans (name, layer, start, end, parent, job) stay in memory and are
written out once at the end.  ``charpoly`` runs once per enumerated matrix,
so it is not a span of its own: its calls and time are added to the span
that called it.
"""

from __future__ import annotations

import json
import sys
import threading
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional

# (module, function, layer); the layer is the chevalab module whose work the
# span measures.
SPANS = [
    ("cli", "main"), ("cli", "run"),
    ("counting", "run_query"), ("counting", "fiber_table"), ("counting", "_fiber_table_np"),
    ("counting", "count_jet_fiber"), ("counting", "count_nilcone_jets"),
    ("counting", "count_gi_jets"), ("counting", "count_sharded"),
    ("measure", "density_profile"), ("measure", "profile_summary"),
    ("measure", "profile_to_csv"), ("measure", "summary_to_json"),
    ("subreg", "mult_pushforward_hist"), ("subreg", "subreg_slice_density"),
    ("subreg", "m1_identity_check"), ("subreg", "val_integral"),
    ("slices", "audit_equivariance"), ("slices", "audit_transversality"),
    ("reporting", "emit"), ("reporting", "atomic_write_text"),
]
LEAF = ("matrices", "charpoly")


class Span:
    __slots__ = ("id", "name", "layer", "parent", "job", "start", "end",
                 "leaf_calls", "leaf_s", "items", "nbytes")

    def __init__(self, sid, name, layer, parent, job):
        self.id, self.name, self.layer, self.parent, self.job = sid, name, layer, parent, job
        self.start = perf_counter()
        self.end = None
        self.leaf_calls = 0
        self.leaf_s = 0.0
        self.items = 0  # matrices swept by a numpy engine inside this span
        self.nbytes = 0  # bytes handed to an atomic write

    @property
    def dur(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "layer": self.layer, "parent": self.parent,
                "job": self.job, "start": self.start, "end": self.end,
                "charpoly_calls": self.leaf_calls, "charpoly_s": self.leaf_s,
                "items": self.items, "bytes": self.nbytes}


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._job: Optional[Span] = None
        self._patched: List[tuple] = []

    # -- recording --
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, layer: str) -> Span:
        stack = self._stack()
        # a pool thread starts with an empty stack: its spans belong to the job
        parent = stack[-1] if stack else self._job
        with self._lock:
            sp = Span(len(self.spans), f"{layer}.{name}", layer,
                      parent.id if parent else None, self._job.id if self._job else None)
            self.spans.append(sp)
        stack.append(sp)
        return sp

    def close(self, sp: Span) -> None:
        sp.end = perf_counter()
        self._stack().pop()

    def job(self, job_id: str) -> Span:
        self._job = None
        self._job = self.open(job_id, "job")
        return self._job

    def _span_wrapper(self, fn: Callable, name: str, layer: str) -> Callable:
        def wrapper(*args, **kwargs):
            sp = self.open(name, layer)
            try:
                if name == "_fiber_table_np":
                    sp.items = args[0].size ** 4
                elif name == "atomic_write_text":
                    sp.nbytes = len(args[1].encode())
                return fn(*args, **kwargs)
            finally:
                self.close(sp)
        return wrapper

    def _leaf_wrapper(self, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack = self._stack()
                if stack:
                    stack[-1].leaf_calls += 1
                    stack[-1].leaf_s += dt
                else:
                    with self._lock:
                        self._job.leaf_calls += 1
                        self._job.leaf_s += dt
        return wrapper

    # -- patching --
    def install(self) -> None:
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "chevalab" or name.startswith("chevalab.")}
        targets = [(m, f, self._span_wrapper) for m, f in SPANS] + [(LEAF[0], LEAF[1], None)]
        for mod_name, fn_name, make in targets:
            orig = getattr(mods[f"chevalab.{mod_name}"], fn_name)
            wrapped = self._leaf_wrapper(orig) if make is None else make(orig, fn_name, mod_name)
            for mod in mods.values():
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapped)
                        self._patched.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for sp in self.spans:
                fh.write(json.dumps(sp.to_dict()) + "\n")


# --------------------------------------------------------------------------
# per-layer numbers from the spans
# --------------------------------------------------------------------------

def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span duration minus the part of it that child spans cover, minus the
    charpoly time recorded inside it."""
    children = defaultdict(list)
    for sp in spans:
        if sp.parent is not None:
            children[sp.parent].append((sp.start, sp.end))
    out = {}
    for sp in spans:
        covered, cur_s, cur_e = 0.0, None, None
        for s, e in sorted(children[sp.id]):
            s, e = max(s, sp.start), min(e, sp.end)
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        out[sp.id] = sp.dur - covered - sp.leaf_s
    return out
