"""Spans and counters recorded around flowlab's public functions, from outside
the package.

A Tracer replaces every public function of the layer modules, under every
name a flowlab module binds it to (so `distill.forward` is wrapped as well
as `netcore.forward`), plus the `__call__` of the two velocity-field
classes. Each call records a span (name, start, end, parent index) in
memory; a few hooks count the exact quantities the benchmark reports (NFE,
discriminator passes, bytes). `restore()` puts every original back.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import importlib
import inspect
import os
import time

LAYERS = ("sched", "netcore", "flow", "distill", "adv", "diag", "cli")

# (module, class, span name) for the velocity fields; one call is one NFE
FIELD_CLASSES = (("flow", "LearnedField", "flow.learned_field"),
                 ("flow", "AnalyticField", "flow.analytic_field"))


def layer_modules(package):
    return [importlib.import_module(f"{package.__name__}.{layer}")
            for layer in LAYERS]


def bindings(package):
    """{(owner name, attribute): function} for every binding the tracer may
    replace, to check that a traced run left the package as it found it."""
    owners = [package] + layer_modules(package)
    found = {(mod.__name__, attr): obj for mod in owners
             for attr, obj in vars(mod).items() if inspect.isfunction(obj)}
    for mod_name, cls_name, _ in FIELD_CLASSES:
        cls = getattr(importlib.import_module(f"{package.__name__}.{mod_name}"),
                      cls_name)
        found[(cls.__qualname__, "__call__")] = cls.__dict__["__call__"]
    return found


# --- hooks: run after the call returns, with the caller's spans still open


def _count_field_call(tracer, args, kwargs, result):
    names = tracer.open_names()
    if "adv.trajectory_states" in names and "adv.train_adversarial" in names:
        tracer.counters["adv.teacher_nfe"] += 1
    elif "distill.sample_training_batch" in names:
        tracer.counters["distill.teacher_nfe"] += 1


def _count_training_batch(tracer, args, kwargs, result):
    names = tracer.open_names()
    if "distill.train_student" in names or "adv.train_adversarial" in names:
        tracer.counters["distill.iters"] += 1


def _count_adv_iteration(tracer, args, kwargs, result):
    # train_adversarial draws one stage per adversarial iteration
    if "adv.train_adversarial" in tracer.open_names():
        tracer.counters["adv.iters"] += 1


def _count_disc_pass(tracer, args, kwargs, result):
    # only discriminators have a scalar head (init_discriminator enforces it);
    # velocity fields output 2-D vectors
    params = args[0] if args else kwargs["params"]
    if params.spec.widths[-1] == 1:
        tracer.counters["adv.disc_passes"] += 1


def _count_rows(tracer, args, kwargs, result):
    z = args[1] if len(args) > 1 else kwargs["z"]
    shape = getattr(z, "shape", (len(z),))
    tracer.counters["flow.analytic_velocity.rows"] += (
        1 if len(shape) == 1 else shape[0])


def _energy_matrix_bytes(tracer, args, kwargs, result):
    # computed, not measured: the (2n)^2 float64 cdist result and its
    # float32 copy are alive together
    n = len(args[0] if args else kwargs["a"])
    size = (2 * n) ** 2 * (8 + 4)
    key = "diag.energy_matrix_bytes"
    tracer.counters[key] = max(tracer.counters[key], size)


def _checkpoint_bytes(tracer, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    tracer.counters["netcore.checkpoint_bytes"] += os.path.getsize(path)


HOOKS = {
    "flow.learned_field": _count_field_call,
    "flow.analytic_field": _count_field_call,
    "distill.sample_training_batch": _count_training_batch,
    "adv.sample_timestep": _count_adv_iteration,
    "netcore.forward": _count_disc_pass,
    "netcore.backward": _count_disc_pass,
    "netcore.forward_with_hidden": _count_disc_pass,
    "flow.analytic_velocity": _count_rows,
    "diag.energy_permutation_test": _energy_matrix_bytes,
    "netcore.save_params": _checkpoint_bytes,
}


class Tracer:
    """In-memory spans and counters; a context manager that installs the
    wrappers on entry and restores the originals on exit."""

    def __init__(self, package):
        self.package = package
        self.spans = []          # [name, start, end, parent index or -1]
        self.counters = collections.Counter()
        self._open = []          # indices of spans not yet ended
        self._saved = []         # (owner, attribute, original)

    def open_names(self):
        return {self.spans[i][0] for i in self._open}

    def _wrap(self, name, fn):
        spans, open_, clock = self.spans, self._open, time.perf_counter
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, open_[-1] if open_ else -1])
            open_.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                open_.pop()
                spans[index][2] = clock()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name):
        """A span the benchmark itself opens."""
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self._open[-1] if self._open else -1])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = layer_modules(self.package)
        wrappers = {}
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for owner in [self.package] + modules:
            for attr, obj in list(vars(owner).items()):
                if id(obj) in wrappers:
                    self._saved.append((owner, attr, obj))
                    setattr(owner, attr, wrappers[id(obj)])
        for mod_name, cls_name, span_name in FIELD_CLASSES:
            cls = getattr(modules[LAYERS.index(mod_name)], cls_name)
            original = cls.__dict__["__call__"]
            self._saved.append((cls, "__call__", original))
            cls.__call__ = self._wrap(span_name, original)

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def summary(self):
        """Per span name: (calls, total seconds, self seconds). Self time is
        a span's duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = collections.Counter()
        total = collections.defaultdict(float)
        own = collections.defaultdict(float)
        for index, (name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - child[index]
        return {name: (calls[name], total[name], own[name]) for name in calls}

    def write_spans(self, path, origin=0.0):
        with open(path, "w") as f:
            f.write("name,start_s,end_s,parent\n")
            for name, start, end, parent in self.spans:
                f.write(f"{name},{start - origin!r},{end - origin!r},{parent}\n")
