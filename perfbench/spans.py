"""Span recorder for the traced run.

Spans are recorded from outside the package: ``install`` rebinds the
public functions listed in ``TARGETS`` to recording wrappers, in every
``vtreduce`` module namespace that holds them (``from .numerics import
as_tensor`` makes a second binding in the importing module), and on the
class for methods. ``uninstall`` restores the originals. Span names are
``<module>.<function>``; the module name is the layer.

A span is ``[name, start, end, parent, op, counters]``, with ``parent`` the
index of the enclosing span (or -1) and ``op`` the op id. Spans stay in
memory until the run ends.
"""

import functools
import os
import sys
import time

_PAGE_MIB = os.sysconf("SC_PAGE_SIZE") / 2**20


def rss_mib() -> float:
    """Resident set size of this process now (not the peak)."""
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * _PAGE_MIB


def _merge_counts(args, kwargs, result):
    selection = args[1] if len(args) > 1 else kwargs["selection"]
    n_sel = len(selection.selected)
    return {
        "encoder_scan.merge_tokens.pairs": n_sel * (selection.n_tokens - n_sel),
        "encoder_scan.merge_tokens.tokens_in": selection.n_tokens,
        "encoder_scan.merge_tokens.tokens_out": len(result.selected),
    }


def _path_arg(index, key):
    def counts(args, kwargs, result):
        return {"path": str(args[index] if len(args) > index else kwargs[key])}
    return counts


# (module, attribute, span name, counters). A counters function maps
# (args, kwargs, result) to {metric name: count}; a "path" entry names the
# bundle a span read or wrote, whose bytes the worker adds after the op.
TARGETS = [
    ("rng", "Xoshiro256.normals", "rng.normals",
     lambda a, k, r: {"rng.normals.draws": r.size}),
    ("trace_io", "generate_synthetic_encoder", "trace_io.generate_synthetic_encoder", None),
    ("trace_io", "generate_synthetic_decoder", "trace_io.generate_synthetic_decoder", None),
    ("trace_io", "write_encoder_bundle", "trace_io.write_encoder_bundle",
     _path_arg(1, "out_dir")),
    ("trace_io", "write_decoder_bundle", "trace_io.write_decoder_bundle",
     _path_arg(1, "out_dir")),
    ("trace_io", "read_encoder_bundle", "trace_io.read_encoder_bundle",
     _path_arg(0, "path")),
    ("trace_io", "read_decoder_bundle", "trace_io.read_decoder_bundle",
     _path_arg(0, "path")),
    ("numerics", "as_tensor", "numerics.as_tensor",
     lambda a, k, r: {"numerics.as_tensor.elements": r.size}),
    ("numerics", "softmax_rows", "numerics.softmax_rows", None),
    ("numerics", "top_k_indices", "numerics.top_k_indices", None),
    ("encoder_scan", "select_tokens", "encoder_scan.select_tokens", None),
    ("encoder_scan", "head_averaged_scores", "encoder_scan.head_averaged_scores", None),
    ("encoder_scan", "local_scan", "encoder_scan.local_scan", None),
    ("encoder_scan", "global_scan", "encoder_scan.global_scan", None),
    ("encoder_scan", "merge_tokens", "encoder_scan.merge_tokens", _merge_counts),
    ("encoder_scan", "write_selection", "encoder_scan.write_selection", None),
    ("decoder_prune", "text_attention_scores", "decoder_prune.text_attention_scores", None),
    ("decoder_prune", "prune_at_layer", "decoder_prune.prune_at_layer",
     lambda a, k, r: {"decoder_prune.prune_at_layer.retained": len(r.retained)}),
    ("cost_model", "solve_encoder_retention", "cost_model.solve_encoder_retention", None),
    ("cost_model", "build_report", "cost_model.build_report",
     lambda a, k, r: {"cost_model.report.total_flops": r.total_flops,
                      "cost_model.report.kv_fraction": r.kv_fraction}),
    ("cost_model", "write_report_csv", "cost_model.write_report", None),
    ("cost_model", "write_report_summary", "cost_model.write_report", None),
    ("analysis", "attention_sum_per_layer", "analysis.attention_sum_per_layer", None),
    ("analysis", "position_bias_histogram", "analysis.position_bias_histogram", None),
    ("analysis", "write_attention_sums_csv", "analysis.write_csv", None),
    ("analysis", "write_bias_histogram_csv", "analysis.write_csv", None),
    ("cli", "main", "cli.main", None),
]

# reads also record how much resident memory the returned trace holds
_RSS_SPANS = {"trace_io.read_encoder_bundle", "trace_io.read_decoder_bundle"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._bindings: list[tuple] = []
        modules = [m for n, m in sys.modules.items()
                   if n == "vtreduce" or n.startswith("vtreduce.")]
        for module, attr, name, counters in TARGETS:
            owner = sys.modules[f"vtreduce.{module}"]
            if "." in attr:  # a method: rebind it on its class
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                original = vars(owner)[attr]
                sites = [(owner, attr)]
            else:
                original = getattr(owner, attr)
                sites = [(m, a) for m in modules for a, v in vars(m).items()
                         if v is original]
            wrapper = self._wrap(original, name, counters)
            self._bindings += [(o, a, original, wrapper) for o, a in sites]

    def _wrap(self, fn, name, counters):
        spans, stack = self.spans, self._stack
        with_rss = name in _RSS_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rss0 = rss_mib() if with_rss else 0.0
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counters is not None:
                span[5] = counters(args, kwargs, result)
            if with_rss:
                span[5][name + ".rss_growth_mib"] = rss_mib() - rss0
            return result

        return wrapper

    def install(self, op: int) -> None:
        self.op = op
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._bindings:
            setattr(owner, attr, original)


def self_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus the durations of its direct children
    (spans of one thread nest, so children never overlap)."""
    selfs = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            selfs[s[3]] -= s[2] - s[1]
    return selfs
