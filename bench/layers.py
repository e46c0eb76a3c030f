"""The program's public functions, one per layer, and the tracer.

Workloads call the program only through a ``Layers`` object.  An
untraced one holds the functions themselves; a traced one holds wrappers
that record a span (name, start, end, parent, operation id) around each
call, in memory, so per-layer self time comes from the benchmark's own
files without touching the program.
"""

import time

# span name -> (module, attribute); the names are the per-layer metric prefixes
LAYERS = {
    "type_from_source": ("coinfer.term_core", "type_from_source"),
    "value_from_source": ("coinfer.term_core", "value_from_source"),
    "print_type": ("coinfer.term_core", "print_type"),
    "canonicalize": ("coinfer.term_core", "canonicalize"),
    "subtype": ("coinfer.subtyping", "subtype"),
    "derive": ("coinfer.subtyping", "derive"),
    "not_empty": ("coinfer.emptiness", "not_empty"),
    "witness": ("coinfer.emptiness", "witness"),
    "member": ("coinfer.interpretation", "member"),
    "sample_values": ("coinfer.interpretation", "sample_values"),
    "parse_program": ("coinfer.horn_compiler", "parse_program"),
    "compile_program": ("coinfer.horn_compiler", "compile_program"),
    "parse_query": ("coinfer.cosld_engine", "parse_query"),
    "solve": ("coinfer.cosld_engine", "solve"),
    "cli.main": ("coinfer.cli", "main"),
}


def load():
    """Import the program; returns {layer name: function}."""
    import importlib

    return {name: getattr(importlib.import_module(module), attr)
            for name, (module, attr) in LAYERS.items()}


class Layers:
    def __init__(self, functions):
        for name, fn in functions.items():
            setattr(self, name.replace(".", "_"), fn)


class Tracer:
    """Spans in memory: (name, start, end, parent span index, op id)."""

    def __init__(self):
        self.spans = []
        self._open = []
        self.op_id = None

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            index = len(self.spans)
            self.spans.append(None)
            self._open.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._open.pop()
                self.spans[index] = (name, start, end, parent, self.op_id)
        return traced

    def layers(self, functions):
        return Layers({name: self.wrap(name, fn) for name, fn in functions.items()})

    def patch_cli(self, functions):
        """Trace the layer functions the CLI module calls by name, so the
        spans of cli.main get children; returns a function that undoes it."""
        import coinfer.cli as cli

        saved = {}
        for name, fn in functions.items():
            if name != "cli.main" and getattr(cli, name, None) is fn:
                saved[name] = fn
                setattr(cli, name, self.wrap(name, fn))

        def restore():
            for name, fn in saved.items():
                setattr(cli, name, fn)
        return restore

    def self_times(self, first=0):
        """[(name, op id, self seconds)] for spans[first:]: each span's
        duration minus the time its child spans cover."""
        spans = self.spans[first:]
        child = [0.0] * len(spans)
        for name, start, end, parent, op in spans:
            if parent is not None and parent >= first:
                child[parent - first] += end - start
        return [(name, op, end - start - child[i])
                for i, (name, start, end, parent, op) in enumerate(spans)]
