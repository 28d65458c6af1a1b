"""Spans and counts recorded by the benchmark around calls into pstt.

pstt runs unmodified: ``Tracer.install`` replaces public functions in
pstt's modules (including names other modules imported, such as
``pstt.schedule.check``) and ``PulseModel`` methods with wrappers, and
``uninstall`` puts the originals back.  Each wrapped call becomes a span
with a name, start, end, parent span and request id.  Spans stay in memory
until ``write_spans``.  Per span name the tracer sums calls, raised calls,
total time and self time (total minus the time of child spans), and it
keeps counters of results: samples written, JSON bytes, rewrite rules.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from pathlib import Path

# Span name -> (module, attribute) pairs that all get the same wrapper.
SPANS = {
    "chip.parse_chip_spec": (("pstt.chip", "parse_chip_spec"),),
    "testkit.gen_judgement": (("pstt.testkit", "gen_judgement"),),
    "surface.parse": (("pstt.surface", "parse"),),
    "typecheck.check": (("pstt.typecheck", "check"), ("pstt.schedule", "check")),
    "equality.judgementally_equal": (("pstt.equality", "judgementally_equal"),),
    "equality.normalize": (("pstt.equality", "normalize"),),
    "semantics.interpret": (("pstt.semantics", "interpret"),),
    "schedule.emit": (("pstt.schedule", "emit"),),
    "schedule.validate": (("pstt.schedule", "validate"),),
    "schedule.to_json": (("pstt.schedule", "to_json"),),
}

# Counter -> (module, attribute): calls counted without a span, because the
# normalizer makes many thousands of them.
COUNTED = {
    "syntax.free_vars.calls": ("pstt.equality", "free_vars"),
    "syntax.alpha_eq.calls": ("pstt.equality", "alpha_eq"),
}

# Counter -> PulseModel methods whose calls it counts.
MODEL_COUNTS = {
    "semantics.model.structural_calls": (
        "braid", "assoc", "assoc_inv", "lunit", "lunit_inv", "runit", "runit_inv",
        "unitor", "unitor_inv", "multiplicator", "multiplicator_inv",
        "dist_unit", "dist_unit_inv", "dist_tensor", "dist_tensor_inv",
    ),
    "semantics.model.compose_calls": ("compose",),
    "semantics.model.tensor_calls": ("tensor_mor",),
    "semantics.model.action_calls": ("act_obj", "act_mor"),
}

RULE_FAMILIES = ("swap", "hoist", "beta", "eta")


class Tracer:
    def __init__(self) -> None:
        self.request: str | None = None
        self.spans: list[tuple[int, str, float, float, int | None, str | None]] = []
        self.values: defaultdict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [span id, child time] per open span
        self._patches: list[tuple[object, str, object]] = []
        self._next_id = 0

    # ------------------------------------------------------------ wrapping

    def install(self) -> None:
        if self._patches:
            return
        equality = importlib.import_module("pstt.equality")
        for name, targets in SPANS.items():
            module, attr = targets[0]
            original = getattr(importlib.import_module(module), attr)
            after = getattr(self, "_after_" + name.split(".")[-1], None)
            wrapper = self._span(name, original, after, equality)
            for module, attr in targets:
                self._patch(importlib.import_module(module), attr, wrapper)
        for counter, (module, attr) in COUNTED.items():
            mod = importlib.import_module(module)
            self._patch(mod, attr, self._count(counter, getattr(mod, attr)))
        model = importlib.import_module("pstt.semantics.pulse").PulseModel
        for counter, methods in MODEL_COUNTS.items():
            for method in methods:
                self._patch(model, method, self._count(counter, getattr(model, method)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner: object, attr: str, wrapper: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _count(self, counter: str, fn):
        values = self.values

        def counted(*args, **kwargs):
            values[counter] += 1
            return fn(*args, **kwargs)

        return counted

    def _span(self, name: str, fn, after, equality):
        tracer = self
        values = self.values
        stack = self._stack
        perf_counter = time.perf_counter

        def spanned(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                values[name + ".raised"] += 1
                if isinstance(exc, equality.BudgetExceeded):
                    values[name + ".budget_exceeded"] += 1
                    values["equality.budget_used_max"] = 1.0
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                values[name + ".calls"] += 1
                values[name + ".total_s"] += duration
                values[name + ".self_s"] += duration - frame[1]
                tracer.spans.append((span_id, name, start, end, parent, tracer.request))
            if after is not None:
                after(result, kwargs, equality)
            return result

        return spanned

    # ------------------------------------------------------- result counters

    def _after_emit(self, schedule, kwargs, equality) -> None:
        self.values["schedule.samples_written"] += sum(len(ch.samples) for ch in schedule.channels)

    def _after_to_json(self, text, kwargs, equality) -> None:
        self.values["schedule.json_bytes"] += len(text.encode())

    def _after_normalize(self, normal_form, kwargs, equality) -> None:
        rules = normal_form.rules
        self.values["equality.rewrite_steps"] += len(rules)
        for rule in rules:
            family = rule.split("-", 1)[0]
            if family in RULE_FAMILIES:
                self.values["equality.rules." + family] += 1
        budget = kwargs.get("budget", equality.DEFAULT_BUDGET)
        used = self.values["equality.budget_used_max"]
        self.values["equality.budget_used_max"] = max(used, len(rules) / budget)

    # --------------------------------------------------------------- output

    def take(self) -> dict[str, float]:
        """Values recorded since the last call; resets them."""
        out = dict(self.values)
        self.values.clear()
        return out

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as f:
            for span_id, name, start, end, parent, request in self.spans:
                f.write(
                    json.dumps(
                        {"id": span_id, "name": name, "start": start, "end": end,
                         "parent": parent, "request": request}
                    )
                    + "\n"
                )
