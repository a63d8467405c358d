"""Run one ``nldrop`` CLI job with every public layer function timed.

Usage::

    python3 perfbench/trace_shim.py SPANS_FILE OP_ID SUBCOMMAND [CLI ARGS...]

The shim imports the package, replaces each public function of the layer
modules by a wrapper that records a span, runs ``nldrop.cli.main`` on the
remaining arguments and writes the spans as JSON to SPANS_FILE at exit.
Every cross-module call in the package goes through a module attribute
(``quadrature.complement_double_integral``), and calls inside a module
look the name up in the module's globals, so replacing the attribute
catches both.  Private helpers are not wrapped: their time shows as the
self time of their public caller.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = (
    "cli",
    "kernels",
    "quadrature",
    "energy",
    "families",
    "slicing",
    "thresholds",
    "isoperimetry",
    "geometry",
)


class SpanRecorder:
    """Keeps spans in memory as [id, parent, name, start, end, samples]."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else -1, name, clock(), None, None]
            spans.append(span)
            stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            samples = getattr(result, "samples", None)
            if isinstance(samples, int):
                span[5] = samples
            return result

        return traced

    def instrument(self):
        """Wrap every public function defined in each layer module."""
        for layer in LAYERS:
            mod = importlib.import_module(f"nldrop.{layer}")
            for attr, obj in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__
                ):
                    continue
                setattr(mod, attr, self.wrap(f"{layer}.{attr}", obj))


def main(argv):
    spans_path, op_id, cli_args = argv[0], argv[1], argv[2:]
    recorder = SpanRecorder()
    recorder.instrument()
    from nldrop import cli

    code = 1
    try:
        code = cli.main(cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"op": op_id, "spans": recorder.spans}, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
