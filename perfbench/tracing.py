"""Spans around the calls into each harmlog layer, and the per-layer metrics.

``Tracer.install`` wraps every public function of the layer modules and
binds the wrapper under every name that refers to the function in any
harmlog namespace, so calls from one module into another are seen as well
as the benchmark's own calls.  A span records its name, start, end, parent
span and op id; spans stay in memory until ``write`` is called.

Self time is a span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import json
import sys
import time

LAYERS = ("harmonic", "oracle", "factorial", "constants", "cnr", "tables", "cli")

def _arg(args, kwargs, i, name, default=None):
    return args[i] if len(args) > i else kwargs.get(name, default)


def _window(args, kwargs, result):
    return _arg(args, kwargs, 1, "b") - _arg(args, kwargs, 0, "a") + 1


# Per-span detail kept for the count metrics, computed from the arguments
# or the result (both cheap to read, so they barely move the parent's time).
_INFO = {
    "harmonic.odd_harmonic_sum": _window,
    "harmonic.correction_sum": _window,
    "factorial.s_sum_exact": lambda args, kwargs, result: _arg(args, kwargs, 0, "n") - 1,
    "cnr.nbb_decompose": lambda args, kwargs, result: len(result),
    "oracle.factorial_exact_ln": lambda args, kwargs, result: _arg(args, kwargs, 0, "n"),
    "tables.generate": lambda args, kwargs, result: (_arg(args, kwargs, 1, "fmt", "csv"), result),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [id, parent, op, name, start, end, info]
        self.stack: list[int] = []
        self.op = -1
        self.paused = False

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        info = _INFO.get(name)
        after = self._wrap_parse_args if name == "cli.build_parser" else None

        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            span = [len(spans), stack[-1] if stack else -1, self.op, name, 0.0, 0.0, None]
            spans.append(span)
            stack.append(span[0])
            span[4] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = clock()
                stack.pop()
            if info is not None:
                span[6] = info(args, kwargs, result)
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _wrap_parse_args(self, parser) -> None:
        # cli.parse_s covers build_parser().parse_args, which is argparse's.
        parser.parse_args = self.wrap("cli.parse_args", parser.parse_args)

    def install(self) -> None:
        """Wrap the public functions of every imported harmlog layer module."""
        modules = [m for n, m in sys.modules.items() if n == "harmlog" or n.startswith("harmlog.")]
        wrappers = {}
        for module in modules:
            layer = module.__name__.rpartition(".")[2]
            if layer not in LAYERS:
                continue
            for name, obj in vars(module).items():
                if name.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) == module.__name__:
                    wrappers[id(obj)] = (obj, self.wrap(f"{layer}.{name}", obj))
        for module in modules:
            for name, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, name, hit[1])

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, op, name, start, end, _ in self.spans:
                fh.write(
                    json.dumps({"id": sid, "parent": parent, "op": op, "name": name,
                                "start": start, "end": end}) + "\n"
                )

    def layer_metrics(self, op_seconds: float, cache_info, bigint_max: int, table_cells) -> dict:
        """Per-layer metrics of the recorded spans; op_seconds is the ops' total time."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[1] >= 0:
                child[span[1]] += span[5] - span[4]
        calls = dict.fromkeys(LAYERS, 0)
        self_s = dict.fromkeys(LAYERS, 0.0)
        fn_self: dict[str, float] = {}
        fn_terms: dict[str, int] = {}
        fn_calls: dict[str, int] = {}
        factorial_ns = set()
        table_bytes = 0
        cells = [0, 0, 0]
        parse_s = 0.0
        for sid, _, _, name, start, end, info in self.spans:
            layer = name.partition(".")[0]
            own = end - start - child[sid]
            calls[layer] += 1
            self_s[layer] += own
            fn_self[name] = fn_self.get(name, 0.0) + own
            fn_calls[name] = fn_calls.get(name, 0) + 1
            if name in ("cli.build_parser", "cli.parse_args"):
                parse_s += end - start
            if info is None:
                continue
            if name == "oracle.factorial_exact_ln":
                if 2 <= info <= bigint_max:
                    factorial_ns.add(info)
            elif name == "tables.generate":
                fmt, text = info
                table_bytes += len(text.encode("utf-8"))
                for i, count in enumerate(table_cells(text, fmt)):
                    cells[i] += count
            else:
                fn_terms[name] = fn_terms.get(name, 0) + info

        def ns_per_term(name):
            terms = fn_terms.get(name, 0)
            return fn_self.get(name, 0.0) / terms * 1e9 if terms else 0.0

        metrics = {}
        for layer in LAYERS:
            metrics[f"{layer}.calls"] = calls[layer]
            metrics[f"{layer}.self_s"] = self_s[layer]
            metrics[f"{layer}.self_share"] = self_s[layer] / op_seconds if op_seconds else 0.0
        odd, corr = "harmonic.odd_harmonic_sum", "harmonic.correction_sum"
        lookups = cache_info.hits + cache_info.misses
        metrics.update({
            "harmonic.window_terms": fn_terms.get(odd, 0) + fn_terms.get(corr, 0),
            "harmonic.odd_ns_per_term": ns_per_term(odd),
            "harmonic.correction_ns_per_term": ns_per_term(corr),
            "factorial.s_sum_terms": fn_terms.get("factorial.s_sum_exact", 0),
            "oracle.ln_ref_calls": fn_calls.get("oracle.ln_ref", 0),
            # The cache is unbounded and cold in a fresh process, so each
            # distinct n in the big-integer range is computed exactly once.
            "oracle.factorial_bigint_calls": len(factorial_ns),
            "oracle.factorial_cache_lookups": lookups,
            "oracle.factorial_cache_hit_ratio": cache_info.hits / lookups if lookups else 0.0,
            "cnr.nbb_blocks": fn_terms.get("cnr.nbb_decompose", 0),
            "tables.bytes_out": table_bytes,
            "tables.cells_matched": cells[0],
            "tables.cells_erratum": cells[1],
            "tables.cells_unexpected": cells[2],
            "cli.parse_s": parse_s,
        })
        return metrics
