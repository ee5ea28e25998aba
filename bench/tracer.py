"""Per-layer tracing of exactquery from outside the package.

Every public function of each layer module is replaced, in every exactquery
module namespace that holds it, by a wrapper that records a span.  Module
globals are patched too, so calls within a module are recorded.  A span is
(name, start_ns, end_ns, parent span, op id); spans stay in memory and are
written out once, at the end of the run.

Kernel rows name functions, and LAYERS modules, that later versions may
delete or rename; a missing one simply records zero calls.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
import types

LAYERS = ("cli", "suites", "boolfn", "polynomial", "qsim", "compose", "lowdeg")

# kernel rows reported as inclusive time (".ms") or call counts (".calls")
KERNEL_MS = (
    "lowdeg.ConstructedFunction.table",
    "lowdeg.certify",
    "lowdeg.witness_sensitivity",
    "polynomial.mobius_coefficients",
    "polynomial.degree_mod_p",
    "polynomial.degree_of",
    "boolfn.deterministic_complexity",
    "boolfn.sensitivity",
    "boolfn.compose_function",
    "qsim.simulate",
    "qsim.is_exact",
    "qsim.relabel_outputs",
    "compose.verify_gap",
    "compose.hybrid_evaluate",
    "compose.build_decision_tree",
)
KERNEL_CALLS = ("qsim.simulate", "compose.hybrid_evaluate")
# the one method traced: it materializes a family's truth table
METHODS = (("lowdeg", "ConstructedFunction", "table"),)
# subset-transform kernels; cells and bytes count only the outermost one
TRANSFORMS = ("polynomial.mobius_coefficients", "polynomial.evaluate_coefficients", "polynomial.degree_mod_p")
# working dtype of degree_mod_p, which returns a degree and not its array
MOD_P_ITEMSIZE = 4
COUNTED = TRANSFORMS + (
    "lowdeg.ConstructedFunction.table",
    "boolfn.deterministic_complexity",
    "compose.build_decision_tree",
)

COUNTS = ("table_cells", "transform_cells", "transform_bytes", "dp_states")


def _short(name: str) -> str:
    """Display name of a metric row: lowdeg.ConstructedFunction.table -> lowdeg.table."""
    return "lowdeg.table" if name == "lowdeg.ConstructedFunction.table" else name


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list = []
        self.stack: list[tuple[int, str]] = []
        self.op = -1
        self.counts = dict.fromkeys(COUNTS, 0)
        self.patches: list[tuple] = []  # (object, attribute, original, wrapper)

    def _count(self, name: str, args: tuple, result) -> None:
        c = self.counts
        if name == "lowdeg.ConstructedFunction.table":
            c["table_cells"] += int(result.size)
        elif name in TRANSFORMS:
            if any(parent in TRANSFORMS for _, parent in self.stack):
                return
            if name == "polynomial.degree_mod_p":
                n, itemsize = args[0].n, MOD_P_ITEMSIZE
            else:
                n, itemsize = int(result.size).bit_length() - 1, result.itemsize
            c["transform_cells"] += n << n
            c["transform_bytes"] += n * (itemsize << n)
        elif name == "boolfn.deterministic_complexity":
            if result is not None:
                c["dp_states"] += 3 ** args[0].n
        elif name == "compose.build_decision_tree":
            c["dp_states"] += 3 ** args[0].n

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        counted = name in COUNTED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append((index, name))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent, self.op)
            if counted:
                self._count(name, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function of the layer modules, everywhere it is
        bound, and switch the wrappers on."""
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules.get(f"exactquery.{layer}")
            if module is None:
                continue
            for attr, value in vars(module).items():
                if (
                    isinstance(value, types.FunctionType)
                    and not attr.startswith("_")
                    and value.__module__ == module.__name__
                ):
                    wrappers[id(value)] = self.wrap(f"{layer}.{attr}", value)
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "exactquery" or mod_name.startswith("exactquery."):
                for attr, value in list(vars(module).items()):
                    if id(value) in wrappers and isinstance(value, types.FunctionType):
                        self.patches.append((module, attr, value, wrappers[id(value)]))
        for layer, cls_name, method in METHODS:
            cls = getattr(sys.modules.get(f"exactquery.{layer}"), cls_name, None)
            fn = getattr(cls, method, None) if cls is not None else None
            if isinstance(fn, types.FunctionType):
                self.patches.append((cls, method, fn, self.wrap(f"{layer}.{cls_name}.{method}", fn)))
        self.enable()

    def enable(self) -> None:
        for target, attr, _, wrapper in self.patches:
            setattr(target, attr, wrapper)

    def disable(self) -> None:
        """Put the original functions back, so an op runs exactly as untraced."""
        for target, attr, original, _ in self.patches:
            setattr(target, attr, original)

    def _aggregate(self, op_label) -> dict:
        """label -> (calls by name, inclusive ns by name, self ns by layer)."""
        durations = [end - start for _, start, end, _, _ in self.spans]
        child_ns = [0] * len(self.spans)
        for (_, _, _, parent, _), d in zip(self.spans, durations):
            if parent >= 0:
                child_ns[parent] += d
        groups: dict = {}
        for (name_id, _, _, _, op), d, child in zip(self.spans, durations, child_ns):
            calls, total_ns, self_ns = groups.setdefault(op_label(op), ({}, {}, {}))
            name = self.names[name_id]
            layer = name.split(".", 1)[0]
            calls[name] = calls.get(name, 0) + 1
            total_ns[name] = total_ns.get(name, 0) + d
            self_ns[layer] = self_ns.get(layer, 0) + d - child
        return groups

    def metrics(self) -> dict:
        """Per-layer calls and self time, kernel rows and counts, over the whole run."""
        calls, total_ns, self_ns = self._aggregate(lambda op: None).get(None, ({}, {}, {}))
        out = {}
        for layer in LAYERS:
            layer_calls = sum(c for name, c in calls.items() if name.split(".", 1)[0] == layer)
            out[f"{layer}.calls"] = (layer_calls, "count")
            out[f"{layer}.self_ms"] = (self_ns.get(layer, 0) / 1e6, "ms")
        for name in KERNEL_MS:
            out[f"{_short(name)}.ms"] = (total_ns.get(name, 0) / 1e6, "ms")
        for name in KERNEL_CALLS:
            out[f"{name}.calls"] = (calls.get(name, 0), "count")
        c = self.counts
        out["lowdeg.table_cells"] = (c["table_cells"], "count")
        out["polynomial.transform_cells"] = (c["transform_cells"], "computed_cells")
        out["polynomial.transform_bytes"] = (c["transform_bytes"], "computed_B")
        out["boolfn.dp_states"] = (c["dp_states"], "count")
        return out

    def breakdown(self, labels: list[str], op_ms: list[float]) -> dict:
        """Per op label: op time, self time by layer and kernel time, all in ms."""
        out = {}
        for label, (_, total_ns, self_ns) in self._aggregate(lambda op: labels[op]).items():
            out[label] = {
                "ops": labels.count(label),
                "op_ms": round(sum(ms for l, ms in zip(labels, op_ms) if l == label), 3),
                "self_ms": {k: round(v / 1e6, 3) for k, v in self_ns.items()},
                "kernel_ms": {_short(k): round(total_ns[k] / 1e6, 3) for k in KERNEL_MS if k in total_ns},
            }
        return out

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start_ns", "end_ns", "parent", "op"],
                    "names": self.names,
                    "spans": self.spans,
                },
                fh,
                separators=(",", ":"),
            )
