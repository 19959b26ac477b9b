"""Run the mialab CLI with spans around the library's public functions.

    PYTHONPATH=src python perfbench/traced_cli.py SPANS.json run --config ...

The library is not edited: after `import mialab.cli`, every module
attribute that refers to one of the functions in TARGETS is replaced by a
wrapper that records a span (name, start, end, parent span, and a few
argument-derived facts). Spans stay in memory and are written to
SPANS.json when the CLI returns. The CLI's exit code is passed through.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import functools  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402

import mialab.cli  # noqa: E402

_IMPORT_S = time.perf_counter() - _T0


def _train_info(bound, out):
    cfg = bound.arguments["cfg"]
    n = len(bound.arguments["members"])
    return {
        "dp": bound.arguments.get("privacy") is not None,
        "steps": cfg.epochs * math.ceil(n / cfg.batch_size),
    }


def _cells_info(bound, out):
    return {"cells": len({(r.repetition, r.scenario, r.epsilon) for r in out.rows})}


# (module, attribute, facts recorded from the bound arguments and result)
TARGETS = (
    ("mialab.config", "load_config", None),
    ("mialab.config", "resolve", None),
    ("mialab.config", "materialize", None),
    ("mialab.dataio", "load_csv", lambda b, out: {"rows": len(out)}),
    (
        "mialab.dataio",
        "preprocess",
        lambda b, out: {"rows": len(out.samples), "width": out.feature_width},
    ),
    ("mialab.splits", "cluster_split", None),
    ("mialab.splits", "attribute_bias_pools", None),
    ("mialab.splits", "draw", None),
    ("mialab.splits", "iid_counterfactual", None),
    ("mialab.experiments", "batch_mm_campaign", _cells_info),
    ("mialab.dp", "calibrate_sigma", None),
    ("mialab.dp", "account", None),
    ("mialab.nn", "train", _train_info),
    ("mialab.nn", "loglosses", None),
    ("mialab.nn", "accuracy", None),
    ("mialab.nn", "forward", None),
    ("mialab.attacks", "average_threshold", None),
    ("mialab.attacks", "optimal_threshold", None),
    ("mialab.attacks", "train_shadow_ensemble", None),
    ("mialab.attacks", "shadow_attack", None),
)


class Tracer:
    """Collects spans as [name, parent index, start, end, facts]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, info=None):
        signature = inspect.signature(fn)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append([name, stack[-1] if stack else -1, clock(), None, None])
            stack.append(sid)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[sid][3] = clock()
            if info is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                spans[sid][4] = info(bound, out)
            return out

        return traced

    def install(self) -> None:
        """Replace every mialab module attribute that is a target function,
        so `from .splits import draw` style imports are covered too."""
        modules = [m for k, m in sys.modules.items() if k == "mialab" or k.startswith("mialab.")]
        for module_name, attr, info in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            short = module_name.split(".", 1)[1]
            wrapper = self.wrap(f"{short}.{attr}", original, info)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    try:
        code = mialab.cli.main(cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": _IMPORT_S, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
