"""Spans and counters recorded from outside the library.

``Tracer.install()`` replaces selected functions of the ``fedosov`` modules
by timing wrappers, in every module namespace that holds them (so calls
through ``from .x import f`` bindings are seen too), and ``uninstall()``
puts the originals back.  Nothing inside ``src/fedosov`` changes.

* A *span* function pushes a frame: its self time is its duration minus the
  time covered by the traced calls made inside it.
* A *counter* function (``XPoly`` arithmetic, ``WeylContext.mono_product``,
  the multinomial split table) would produce millions of spans; each call
  only adds its time and counts to the enclosing span, aggregated per
  (parent, name).

Records are kept only while ``phase`` is set; they are aggregated per
``(phase, parent, name)`` as ``[calls, total_s, child_s, terms]``.
"""

from __future__ import annotations

import sys
from time import perf_counter

from fedosov import cochains, io, poly, quantize, weyl, weylhh

# (metric name, owner, attribute, how to count the terms of the result)
SPANS = [
    ("io.parse_poly", io, "parse_poly", "len"),
    ("io.dumps_canonical", io, "dumps_canonical", "str"),
    ("io.fedosov_data_from_json", io, "fedosov_data_from_json", None),
    ("weyl.moyal_product", weyl, "moyal_product", "len"),
    ("weyl.nabla", weyl, "nabla", "len"),
    ("weyl.delta_inv", weyl, "delta_inv", "len"),
    ("quantize.solve_r", quantize, "solve_r", "len"),
    ("quantize.tau", quantize, "tau", "len"),
    ("quantize.star", quantize, "star", "len"),
    ("cochains.horizontal_lift_cochain", cochains, "horizontal_lift_cochain", "len"),
    ("cochains.delta_inv_cochain", cochains, "delta_inv_cochain", "len"),
    ("cochains.cup", cochains, "cup", "len"),
    ("cochains.cochain_eval", cochains, "cochain_eval", "in"),
    ("cochains.local_eval", cochains.LocalCochainEvaluator, "__call__", "len"),
    ("cochains.insert", cochains, "insert", "len"),
    ("cochains.hochschild_d", cochains, "hochschild_d", "len"),
    ("cochains.gerstenhaber", cochains, "gerstenhaber", "len"),
    ("weylhh.cochain_insert", weylhh, "cochain_insert", "len"),
    ("weylhh.eval_on_bar", weylhh, "eval_on_bar", "len"),
    ("weylhh.cochain_from_values", weylhh, "cochain_from_values", "len"),
    ("weylhh.cochain_homotopy", weylhh, "cochain_homotopy", "len"),
    ("weylhh.rho_hat", weylhh, "rho_hat", "len"),
    ("weylhh.hh_hochschild_d", weylhh, "hh_hochschild_d", "len"),
    ("weylhh.gl_transport", weylhh, "gl_transport", "len"),
]

COUNTERS = [
    ("poly.mul", poly.XPoly, "__mul__"),
    ("poly.mul", poly.XPoly, "__rmul__"),
    ("poly.add", poly.XPoly, "__add__"),
    ("poly.scale", poly.XPoly, "scale"),
]

# lookups that hit or miss a cache, told apart by the cache's growth
CACHES = [
    ("weylhh.mono_product", weylhh.WeylContext, "mono_product",
     lambda args: args[0]._mono_cache),
    ("cochains.split_cache", cochains, "_slot_splits",
     lambda args: cochains._SPLIT_CACHE),
]

ROOT = "op"


def n_terms(obj):
    """Stored terms of a library value: dict entries of ``terms``, summed
    over the components of a form."""
    if obj is None:
        return 0
    comps = getattr(obj, "components", None)
    if comps is not None:
        return sum(len(w.terms) for w in comps.values())
    terms = getattr(obj, "terms", obj)
    return len(terms) if isinstance(terms, dict) else 0


class Tracer:
    def __init__(self):
        self.phase = None
        self.records = {}      # (phase, parent, name) -> [calls, total, child, terms]
        self.cache = {}        # (phase, name) -> [hits, misses]
        self._stack = [[ROOT, 0.0]]
        self._saved = []

    # -- recording -----------------------------------------------------------

    def _rec(self, name):
        key = (self.phase, self._stack[-1][0], name)
        rec = self.records.get(key)
        if rec is None:
            rec = self.records[key] = [0, 0.0, 0.0, 0]
        return rec

    def _span(self, name, fn, kind):
        stack = self._stack

        def wrapper(*args, **kw):
            if self.phase is None:
                return fn(*args, **kw)
            rec = self._rec(name)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kw)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                stack[-1][1] += dt
            rec[0] += 1
            rec[1] += dt
            rec[2] += frame[1]
            if kind == "in":
                rec[3] += n_terms(args[0])
            elif kind == "str":
                rec[3] += len(out)
            elif kind == "len":
                rec[3] += n_terms(out)
            return out

        return wrapper

    def _counter(self, name, fn):
        stack = self._stack

        def wrapper(*args, **kw):
            if self.phase is None:
                return fn(*args, **kw)
            t0 = perf_counter()
            out = fn(*args, **kw)
            dt = perf_counter() - t0
            stack[-1][1] += dt
            rec = self._rec(name)
            rec[0] += 1
            rec[1] += dt
            rec[3] += len(out.terms)
            return out

        return wrapper

    def _cache(self, name, fn, table):
        stack = self._stack

        def wrapper(*args, **kw):
            if self.phase is None:
                return fn(*args, **kw)
            cache = table(args)
            before = len(cache)
            t0 = perf_counter()
            out = fn(*args, **kw)
            dt = perf_counter() - t0
            stack[-1][1] += dt
            rec = self._rec(name)
            rec[0] += 1
            rec[1] += dt
            rec[3] += len(out)
            hits_misses = self.cache.setdefault((self.phase, name), [0, 0])
            hits_misses[0 if len(cache) == before else 1] += 1
            return out

        return wrapper

    # -- patching ------------------------------------------------------------

    def install(self):
        mods = [m for k, m in sys.modules.items()
                if m is not None and (k == "fedosov" or k.startswith("fedosov."))]
        for name, owner, attr, kind in SPANS:
            self._replace(mods, owner, attr, self._span(name, getattr(owner, attr), kind))
        for name, owner, attr in COUNTERS:
            self._replace(mods, owner, attr, self._counter(name, getattr(owner, attr)))
        for name, owner, attr, table in CACHES:
            self._replace(mods, owner, attr, self._cache(name, getattr(owner, attr), table))

    def _replace(self, mods, owner, attr, wrapper):
        orig = getattr(owner, attr)
        setattr(owner, attr, wrapper)
        self._saved.append((owner, attr, orig))
        if isinstance(owner, type):
            return
        for m in mods:
            for k, v in list(vars(m).items()):
                if v is orig:
                    setattr(m, k, wrapper)
                    self._saved.append((m, k, orig))

    def uninstall(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)
