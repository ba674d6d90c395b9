"""Spans around the public functions of each rbseries layer, from outside.

`Tracer.install` wraps every function in LAYERS, both where it is defined and
under each name another rbseries module imported it as (`solvers.apply`,
`checks.picard_solve`, `cli.picard_solve`, ...), so calls between layers are
caught. A span records its id, its parent's id, the operation it belongs to,
its layer and its start and end; spans stay in memory until `write`. A layer's
self time is the time of its spans minus the part their child spans cover.
"""

from __future__ import annotations

import gzip
import json
from array import array
from time import perf_counter_ns

# layer -> (module, names); "Class.attr" wraps a method, property or classmethod.
LAYERS = {
    "series.mul": ("series", ["TruncatedSeries.__mul__"]),
    "series.linear": ("series", ["TruncatedSeries.__add__", "TruncatedSeries.__sub__",
                                 "TruncatedSeries.__neg__", "TruncatedSeries.scale"]),
    "series.exp_log": ("series", ["TruncatedSeries.exp", "TruncatedSeries.log1p",
                                  "TruncatedSeries.lambda_log", "TruncatedSeries.geom_inv"]),
    "series.boundary": ("series", ["TruncatedSeries.__init__", "TruncatedSeries.from_coeffs",
                                   "parse_series", "TruncatedSeries.coeffs",
                                   "TruncatedSeries.coefficient", "TruncatedSeries.__str__",
                                   "TruncatedSeries.to_json"]),
    "operators.apply": ("operators", ["apply", "tilde_apply"]),
    "solvers.chi": ("solvers", ["chi_lambda", "chi_zero"]),
    "solvers.bch": ("solvers", ["bch"]),
    "solvers.picard": ("solvers", ["picard_solve"]),
    "solvers.closed": ("solvers", ["spitzer_closed", "inhom_closed_commutative",
                                   "inhom_closed_noncommutative", "inhom_closed_weight0"]),
    "checks.run_check": ("checks", ["run_check"]),
    "checks.random_series": ("checks", ["random_series"]),
    "checks.first_mismatch": ("checks", ["first_mismatch"]),
    "cli.main": ("cli", ["main"]),
    "cli.build_parser": ("cli", ["build_parser"]),
    "rings.random_element": ("rings", ["random_element"]),
}

# Layers whose call counts are reported, and those whose spans also count the
# series products made inside them.
CALL_COUNTED = ("series.mul", "series.linear", "series.exp_log", "series.boundary",
                "operators.apply", "solvers.chi", "solvers.bch", "solvers.picard",
                "checks.random_series", "rings.random_element")
PRODUCT_COUNTED = ("solvers.chi", "solvers.picard")


def coefficient_bits(series, coeffs_getter) -> int:
    """Largest bit length of a numerator or denominator among the entries of
    the series' coefficients, each a reduced fraction."""
    bits = 0
    for c in coeffs_getter(series):
        values = [c.value] if not isinstance(c.value, tuple) else [x for row in c.value for x in row]
        for v in values:
            bits = max(bits, abs(v.numerator).bit_length(), v.denominator.bit_length())
    return bits


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []  # span name table: layers, then operations
        self.active = False
        self.op_id = 0
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.products: dict[str, int] = {}
        self.max_bits = 0
        self._mul_calls = 0
        self._next_id = 1
        self._stack: list[list[int]] = []  # [span id, child ns, products at entry]
        self.spans = array("q")  # id, parent, op, name, start ns, end ns
        self._restore: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------- recording

    def _name(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _enter(self) -> int:
        sid = self._next_id
        self._next_id += 1
        self._stack.append([sid, 0, self._mul_calls])
        return perf_counter_ns()

    def _exit(self, layer: str, name_idx: int, start: int, end: int, extra_ns: int = 0) -> None:
        sid, child_ns, muls_at_entry = self._stack.pop()
        dur = end - start
        self.calls[layer] = self.calls.get(layer, 0) + 1
        self.self_ns[layer] = self.self_ns.get(layer, 0) + dur - child_ns
        if layer in PRODUCT_COUNTED:
            self.products[layer] = self.products.get(layer, 0) + self._mul_calls - muls_at_entry
        parent = self._stack[-1][0] if self._stack else 0
        if self._stack:
            self._stack[-1][1] += dur + extra_ns
        self.spans.extend((sid, parent, self.op_id, name_idx, start, end))

    def operation(self, op_id: int, name: str, call):
        """Run one operation as the root span of its id."""
        self.op_id = op_id
        idx = self._name(name)
        self.active = True
        start = self._enter()
        try:
            return call()
        finally:
            end = perf_counter_ns()
            self.active = False
            self._exit("op", idx, start, end)

    def _wrap(self, layer: str, fn, is_mul: bool, coeffs_getter):
        idx = self._name(layer)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            start = tracer._enter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._exit(layer, idx, start, perf_counter_ns())
                raise
            end = perf_counter_ns()
            extra = 0
            if is_mul:
                # The size probe is not the product's work: its time is kept
                # out of this span and out of its parent's self time.
                tracer._mul_calls += 1
                tracer.active = False
                try:
                    bits = coefficient_bits(result, coeffs_getter)
                finally:
                    tracer.active = True
                tracer.max_bits = max(tracer.max_bits, bits)
                extra = perf_counter_ns() - end
            tracer._exit(layer, idx, start, end, extra)
            return result

        traced.__wrapped__ = fn
        return traced

    # ---------------------------------------------------------------- install

    def install(self, rb) -> None:
        """Wrap the LAYERS functions of the imported modules held by `rb`."""
        modules = [rb.package, rb.rings, rb.series, rb.operators, rb.solvers, rb.checks, rb.cli]
        coeffs_getter = rb.series.TruncatedSeries.coeffs.fget
        for layer, (module_name, names) in LAYERS.items():
            module = getattr(rb, module_name)
            for name in names:
                if "." not in name:
                    fn = getattr(module, name)
                    wrapped = self._wrap(layer, fn, False, coeffs_getter)
                    for m in modules:
                        for attr, value in list(vars(m).items()):
                            if value is fn:
                                self._set(m, attr, wrapped)
                    continue
                cls_name, attr = name.split(".")
                cls = getattr(module, cls_name)
                raw = vars(cls)[attr]
                if isinstance(raw, property):
                    new = property(self._wrap(layer, raw.fget, False, coeffs_getter))
                elif isinstance(raw, classmethod):
                    new = classmethod(self._wrap(layer, raw.__func__, False, coeffs_getter))
                else:
                    new = self._wrap(layer, raw, layer == "series.mul", coeffs_getter)
                self._set(cls, attr, new)

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # ----------------------------------------------------------------- output

    def metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer counts and self times, per round."""
        out: dict[str, float] = {}
        for layer in LAYERS:
            if layer in CALL_COUNTED:
                out[f"{layer}.calls"] = self.calls.get(layer, 0) / rounds
            out[f"{layer}.ms"] = self.self_ns.get(layer, 0) / 1e6 / rounds
        for layer in PRODUCT_COUNTED:
            out[f"{layer}.products"] = self.products.get(layer, 0) / rounds
        out["series.mul.max_bits"] = self.max_bits
        return out

    def write(self, path) -> None:
        """All spans as gzipped JSON: a name table and a flat list of six
        columns per span, written in chunks to keep memory flat."""
        head = json.dumps({"names": self.names,
                           "columns": ["id", "parent", "op", "name", "start_ns", "end_ns"]})
        chunk = 6 * 4096
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(head[:-1] + ', "spans": [')
            for i in range(0, len(self.spans), chunk):
                fh.write(("," if i else "") + ",".join(map(str, self.spans[i:i + chunk])))
            fh.write("]}")
