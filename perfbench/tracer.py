"""Run the qfidyn CLI with its layer functions wrapped in timing spans.

Usage: python tracer.py SPANS_JSON CLI_ARG...

Each function named in TRACED is replaced, from outside the package, in
every qfidyn module namespace that holds it, so calls between modules are
traced too and a nested call records its caller's span as parent (fig1's
mazur_weight under qfi_from_dynsym).  Spans stay in memory and are written
to SPANS_JSON when the CLI returns.  A name that no longer exists is listed
as missing instead of failing, so the traced run survives refactors.

The parent side (self_times, counters) turns the spans into per-function
self time and call counts.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# module -> public functions timed per call; "Class.method" wraps a method.
TRACED = {
    "operators": ("build_xx_hamiltonian", "local_generator", "operator_from_strings"),
    "models": ("build_preset", "two_qubit_symmetry_operators"),
    "spectral": ("diagonalize", "SpectralDecomposition.to_eigenbasis", "gibbs_weights"),
    "dynsym": ("trivial_complete_set", "verified_blocks", "mazur_weight",
               "projector_mazur_weight"),
    "metrology": ("qfi_spectral", "qfi_from_dynsym", "entanglement_depth"),
    "response": ("response_comb",),
}


def metric_name(module, name):
    """Metric prefix of a traced function: methods report under their own name."""
    return f"{module}.{name.rsplit('.', 1)[-1]}"


NAMES = tuple(metric_name(m, n) for m, names in TRACED.items() for n in names)


def _blocks(result):
    pairs = sum(b.ms.size for b in result if hasattr(b, "ms"))
    return {"dynsym.blocks": len(result), "dynsym.pairs": pairs}


# Counts read from return values, summed over calls (spectral.dim: largest).
COUNTERS = {
    "spectral.diagonalize": lambda r: {"spectral.dim": r.dim},
    "dynsym.trivial_complete_set": _blocks,
    "dynsym.verified_blocks": _blocks,
    "response.response_comb": lambda r: {"response.teeth": r.omegas.size},
}
COUNTER_NAMES = ("spectral.dim", "dynsym.blocks", "dynsym.pairs", "response.teeth")


class Recorder:
    """In-memory span log: (name index, start ns, end ns, parent span)."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.errors = 0
        self.missing = []
        self.counters = dict.fromkeys(COUNTER_NAMES, 0)
        self.counter_errors = 0

    def wrap(self, name, fn):
        idx = NAMES.index(name)
        counter = COUNTERS.get(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            me = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(me)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[me] = (idx, start, end, parent)
            if counter is not None:
                self.count(counter, result)
            return result

        return traced

    def count(self, counter, result):
        try:
            values = counter(result)
        except (AttributeError, TypeError):
            self.counter_errors += 1
            return
        for key, value in values.items():
            if key == "spectral.dim":
                self.counters[key] = max(self.counters[key], int(value))
            else:
                self.counters[key] += int(value)

    def install(self):
        """Wrap every TRACED function in all loaded qfidyn namespaces."""
        importlib.import_module("qfidyn.cli")  # loads every layer module
        namespaces = [mod for key, mod in sys.modules.items()
                      if key == "qfidyn" or key.startswith("qfidyn.")]
        for module, names in TRACED.items():
            home = importlib.import_module(f"qfidyn.{module}")
            for name in names:
                metric = metric_name(module, name)
                if "." in name:
                    cls_name, attr = name.split(".")
                    cls = getattr(home, cls_name, None)
                    orig = vars(cls).get(attr) if isinstance(cls, type) else None
                    if not callable(orig):
                        self.missing.append(metric)
                        continue
                    setattr(cls, attr, self.wrap(metric, orig))
                    continue
                orig = getattr(home, name, None)
                if not callable(orig):
                    self.missing.append(metric)
                    continue
                wrapped = self.wrap(metric, orig)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is orig:
                            setattr(ns, key, wrapped)

    def dump(self, path):
        payload = {
            "names": NAMES,
            "spans": self.spans,
            "errors": self.errors,
            "missing": self.missing,
            "counters": self.counters,
            "counter_errors": self.counter_errors,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def self_times(trace):
    """Per-function self time (s) and calls, plus the top-level span total.

    A span's self time is its duration minus the durations of its direct
    children; calls are single-threaded, so children never overlap.
    """
    spans = trace["spans"]
    names = trace["names"]
    child_ns = [0] * len(spans)
    top_ns = 0
    for idx, start, end, parent in spans:
        if parent < 0:
            top_ns += end - start
        else:
            child_ns[parent] += end - start
    self_s = dict.fromkeys(names, 0.0)
    calls = dict.fromkeys(names, 0)
    for i, (idx, start, end, _) in enumerate(spans):
        self_s[names[idx]] += (end - start - child_ns[i]) * 1e-9
        calls[names[idx]] += 1
    return self_s, calls, top_ns * 1e-9


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    recorder = Recorder()
    recorder.install()
    cli = importlib.import_module("qfidyn.cli")
    try:
        code = cli.main(cli_args)
    finally:
        recorder.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
