"""In-memory spans around the public functions of each steercert layer.

Nothing here is part of steercert. install() replaces each traced
function with a wrapper in every steercert module that holds it as a
global, which is where each caller looks the name up, so internal calls
(selftest.certify -> measurements.is_projective, serialize ->
serialize.matrix_from_json) are seen as well as the CLI's. json.load and
jsonschema.validate are wrapped where the CLI looks them up: the `json`
and `jsonschema` globals of steercert.cli.

A span records its name, its parent span, the operation it belongs to
and its start and end. Self time is a span's duration minus the
durations of its direct children; the worker is single-threaded, so
children never overlap.
"""

from __future__ import annotations

import functools
import sys
import types
from time import perf_counter

# module -> public functions whose calls become spans named "<layer>.<name>"
LAYERS = {
    "steercert.serialize": ("realization_from_json", "matrix_from_json", "povm_from_json"),
    "steercert.steering": (
        "functional_coefficients", "evaluate", "lhs_bound_exact", "lhs_bound_paper_upper",
    ),
    "steercert.selftest": ("certify", "stabilizer_residuals", "commutation_residual"),
    "steercert.measurements": ("is_projective",),
    "steercert.povm": ("partial_povm", "covariant_povm", "validate_povm", "is_extremal_rank_one"),
    "steercert.randomness": ("randomness_report",),
    "steercert.bell3": ("seesaw_details",),
}
# (global of steercert.cli, attribute, span name)
CLI_LIBRARY_CALLS = (
    ("json", "load", "cli.json_load"),
    ("jsonschema", "validate", "cli.schema_validate"),
)
MAIN = "cli.main"


class Tracer:
    """Collects spans; `op` is the sequence number of the current operation."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index or -1, op, start, end]
        self._stack: list[int] = []
        self.op = -1

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, self.op, perf_counter(), 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[4] = perf_counter()
                stack.pop()

        return traced


class _ModuleProxy(types.ModuleType):
    """A module whose listed attributes are replaced, the rest forwarded."""

    def __init__(self, module, **replaced):
        super().__init__(module.__name__)
        self._module = module
        self.__dict__.update(replaced)

    def __getattr__(self, name):
        return getattr(self._module, name)


def install(tracer: Tracer):
    """Wrap every traced function in place; returns the traced cli.main."""
    loaded = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "steercert"]
    for modname, names in LAYERS.items():
        layer = modname.split(".", 1)[1]
        for name in names:
            original = getattr(sys.modules[modname], name)
            wrapper = tracer.wrap(f"{layer}.{name}", original)
            for module in loaded:
                holders = [k for k, v in vars(module).items() if v is original]
                for k in holders:
                    setattr(module, k, wrapper)
    cli = sys.modules["steercert.cli"]
    for global_name, attr, span in CLI_LIBRARY_CALLS:
        library = getattr(cli, global_name)
        wrapped = tracer.wrap(span, getattr(library, attr))
        setattr(cli, global_name, _ModuleProxy(library, **{attr: wrapped}))
    return tracer.wrap(MAIN, cli.main)


def span_names() -> list[str]:
    names = [MAIN] + [span for _, _, span in CLI_LIBRARY_CALLS]
    for modname, fns in LAYERS.items():
        layer = modname.split(".", 1)[1]
        names += [f"{layer}.{fn}" for fn in fns]
    return names


def aggregate(spans: list, n_ops: int) -> dict:
    """Per name: busy seconds, self seconds and calls, each per operation.

    A span nested in a span of the same name is not counted again in
    busy time, so recursion cannot double it.
    """
    child_time = [0.0] * len(spans)
    for name, parent, _, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {n: {"busy": 0.0, "self": 0.0, "calls": 0} for n in span_names()}
    for i, (name, parent, _, start, end) in enumerate(spans):
        acc = out[name]
        acc["calls"] += 1
        acc["self"] += (end - start) - child_time[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][1]
        if p < 0:
            acc["busy"] += end - start
    return {
        n: {k: v / n_ops for k, v in acc.items()} for n, acc in out.items()
    }
