"""Span tracing installed from outside the program.

:class:`Tracer` wraps every public function of the named ``ellab`` layer
modules and rebinds each wrapper at every module attribute that held the
original, which covers every ``from ... import`` site, so a call made inside
another traced call records that call's span as its parent.  Spans are kept
in memory (name, start, end, span id, parent id, op id) and written out at
the end; self time is a span's duration minus the time its child spans
cover, accumulated as spans close.
"""

from __future__ import annotations

import inspect
import sys
import time

LAYERS = ("configs", "catalog", "isogeny", "torsion", "product", "kummer",
          "correspondence", "cli")
# Results counted per function: kummer_rigidity calls that found a rigid quotient.
OBSERVERS = {"kummer.kummer_rigidity": lambda report: report.rigid}


class Tracer:
    def __init__(self, span_cap=100_000):
        self.names = []
        self.calls = []
        self.self_ns = []
        self.observed = []
        self.stack = []
        self.spans = []
        self.span_cap = span_cap
        self.span_count = 0
        self.op_id = -1
        self.active = False
        self._installed = []

    def _slot(self, name):
        self.names.append(name)
        self.calls.append(0)
        self.self_ns.append(0)
        self.observed.append(0)
        return len(self.names) - 1

    def wrap(self, name, fn):
        """A span-recording stand-in for ``fn``; a call with no open span
        starts a new op."""
        idx = self._slot(name)
        observe = OBSERVERS.get(name)
        stack, spans, calls, self_ns, observed = (
            self.stack, self.spans, self.calls, self.self_ns, self.observed)
        clock = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span_id = tracer.span_count
            tracer.span_count = span_id + 1
            if stack:
                parent = stack[-1][0]
            else:
                parent = -1
                tracer.op_id += 1
            frame = [span_id, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                calls[idx] += 1
                self_ns[idx] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if len(spans) < tracer.span_cap:
                    spans.append((idx, start, end, span_id, parent, tracer.op_id))
            if observe is not None and observe(result):
                observed[idx] += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap the public functions of every loaded layer module."""
        originals = {}
        for layer in LAYERS:
            module = sys.modules.get(f"ellab.{layer}")
            if module is None:
                continue
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == module.__name__):
                    originals[id(value)] = (value, self.wrap(f"{layer}.{attr}", value))
        for name, module in list(sys.modules.items()):
            if name != "ellab" and not name.startswith("ellab."):
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._installed.append((module, attr, value))

    def uninstall(self):
        for module, attr, value in self._installed:
            setattr(module, attr, value)
        self._installed.clear()

    def totals(self):
        """{name: (calls, self_ns, observed)} summed over same-named slots."""
        out = {}
        for name, calls, self_ns, observed in zip(self.names, self.calls, self.self_ns,
                                                  self.observed):
            c, s, o = out.get(name, (0, 0, 0))
            out[name] = (c + calls, s + self_ns, o + observed)
        return out

    def write_spans(self, path):
        """Spans as TSV, times in ns relative to the first span."""
        origin = self.spans[0][1] if self.spans else 0
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(f"# spans kept {len(self.spans)} of {self.span_count}\n")
            handle.write("name\tstart_ns\tend_ns\tspan\tparent\top\n")
            for idx, start, end, span_id, parent, op_id in self.spans:
                handle.write(f"{self.names[idx]}\t{start - origin}\t{end - origin}\t"
                             f"{span_id}\t{parent}\t{op_id}\n")


def parse_importtime(stderr_text):
    """{module: (self_us, cumulative_us)} from ``python -X importtime`` output."""
    out = {}
    for line in stderr_text.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3:
            continue
        try:
            self_us, cumulative_us = int(fields[0]), int(fields[1])
        except ValueError:
            continue  # the header line
        out[fields[2].strip()] = (self_us, cumulative_us)
    return out
