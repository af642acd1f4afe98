"""Span tracer that wraps dosebench's public functions from outside the package.

Each layer is named ``<module>.<function>`` and maps to one or more
attributes of a dosebench module. Installing the tracer replaces every
binding of the original function in every loaded ``dosebench`` module (and
the class attribute, for methods), so calls made from inside the package hit
the wrapper too. A target that no longer exists is reported as absent.

Spans (name, start, end, parent) are kept in memory in flat lists and
written out once, after the traced run.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import threading
import time
from collections import defaultdict

import numpy as np

# (layer name, module, attribute paths). "Class.method" patches the class.
LAYERS = (
    ("patients.step_physiology", "dosebench.patients", ("step_physiology",)),
    ("env.step", "dosebench.env", ("GlucoseEnv.step",)),
    ("env.reset", "dosebench.env", ("GlucoseEnv.reset",)),
    ("env.build_observation", "dosebench.env", ("build_observation",)),
    ("metrics.risk_index", "dosebench.metrics", ("risk_index",)),
    ("metrics.bootstrap_ci", "dosebench.metrics", ("bootstrap_ci",)),
    ("harness.run_protocol", "dosebench.harness", ("run_protocol",)),
    ("harness.resolve", "dosebench.harness", ("PolicySpec.resolve",)),
    ("harness.act", "dosebench.harness",
     ("ScriptedPolicy.act", "DqnPolicy.act", "PpoEvalPolicy.act",
      "LlmPolicy.act")),
    ("harness.aggregate", "dosebench.harness", ("aggregate",)),
    ("harness.emit_report", "dosebench.harness", ("emit_report",)),
    ("nets.load_params", "dosebench.nets", ("load_params",)),
    ("nets.forward", "dosebench.nets", ("forward",)),
    ("nets.backward", "dosebench.nets", ("backward",)),
    ("nets.adam_step", "dosebench.nets", ("adam_step",)),
    ("dqn.select_action", "dosebench.dqn", ("select_action",)),
    ("dqn.train_step", "dosebench.dqn", ("train_step",)),
    ("dqn.replay_sample", "dosebench.dqn", ("ReplayBuffer.sample",)),
    ("dqn.replay_add", "dosebench.dqn", ("ReplayBuffer.add",)),
    ("ppo.sample", "dosebench.ppo", ("PpoPolicy.sample",)),
    ("ppo.ppo_update", "dosebench.ppo", ("ppo_update",)),
    ("ppo.gae", "dosebench.ppo", ("gae",)),
    ("llm.llm_act", "dosebench.llm.client", ("llm_act",)),
    ("llm.serialize_observation", "dosebench.llm.prompts",
     ("serialize_observation",)),
    ("llm.build_prompt", "dosebench.llm.prompts", ("build_prompt",)),
    ("llm.load_templates", "dosebench.llm.prompts", ("load_templates",)),
    ("llm.http_transport", "dosebench.llm.client", ("http_transport",)),
    ("llm.parse", "dosebench.llm.prompts", ("parse_cot", "parse_zero_shot")),
)

LAYER_NAMES = tuple(name for name, _, _ in LAYERS)
_INHERITED = object()


class Tracer:
    """In-memory span recorder; ``wrap`` makes a function emit spans."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_idx: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.absent: list[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _open(self, name: str) -> int:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:  # the four lists stay aligned across threads
            nid = self._name_ids.get(name)
            if nid is None:
                nid = self._name_ids[name] = len(self.names)
                self.names.append(name)
            idx = len(self.start)
            self.name_idx.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.start.append(0.0)
            self.end.append(0.0)
        stack.append(idx)
        self.start[idx] = time.perf_counter()
        return idx

    def _close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self._local.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the block (used for the root span)."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return traced

    def arrays(self):
        return (np.asarray(self.name_idx, dtype=np.int32),
                np.asarray(self.start), np.asarray(self.end),
                np.asarray(self.parent, dtype=np.int64))

    def summary(self) -> dict:
        """Layer name -> (calls, self seconds)."""
        name_idx, start, end, parent = self.arrays()
        own = self_times(start, end, parent)
        calls = np.bincount(name_idx, minlength=len(self.names))
        secs = np.bincount(name_idx, weights=own, minlength=len(self.names))
        return {name: (int(calls[i]), float(secs[i]))
                for i, name in enumerate(self.names)}

    def save(self, path):
        name_idx, start, end, parent = self.arrays()
        np.savez_compressed(path, names=np.asarray(self.names), name_idx=name_idx,
                            start=start, end=end, parent=parent)


def self_times(start, end, parent) -> np.ndarray:
    """Span duration minus the part of it that its child spans cover.

    Children are clipped to their parent's interval and overlapping children
    (spans from concurrent callers) are merged before subtracting.
    """
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    own = end - start
    children = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[int(p)].append(i)
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        covered, cur_lo, cur_hi = 0.0, None, None
        for k in sorted(kids, key=lambda k: start[k]):
            a, b = max(start[k], lo), min(end[k], hi)
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        own[p] -= covered
    return own


def _resolve(module, path: str):
    """(owner, attribute name, function) for 'func' or 'Class.method'."""
    owner = module
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


@contextlib.contextmanager
def installed(tracer: Tracer, layers=LAYERS):
    """Every layer in ``layers`` wrapped by ``tracer`` for the duration.

    Attribute paths that no longer exist are appended to ``tracer.absent``
    and skipped, so a renamed function never breaks the benchmark.
    """
    package = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "dosebench"
                                     or name.startswith("dosebench."))]
    undo = []

    def patch(owner, attr, wrapper):
        undo.append((owner, attr, vars(owner).get(attr, _INHERITED)))
        setattr(owner, attr, wrapper)

    for layer, module_name, paths in layers:
        module = sys.modules.get(module_name)
        for path in paths:
            try:
                owner, attr, original = _resolve(module, path)
            except AttributeError:
                tracer.absent.append(f"{module_name}.{path}")
                continue
            wrapper = tracer.wrap(layer, original)
            if isinstance(owner, type):
                patch(owner, attr, wrapper)
                continue
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        patch(mod, key, wrapper)
    try:
        yield
    finally:
        for owner, attr, original in reversed(undo):
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


@contextlib.contextmanager
def traced_region(tracer: Tracer, root: str):
    """Every layer wrapped and a root span open for the duration."""
    with installed(tracer), tracer.span(root):
        yield
