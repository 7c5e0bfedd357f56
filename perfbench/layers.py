"""Outside-in layer tracing for the bvcalc benchmark.

The tracer replaces bvcalc's layer entry points with counting wrappers while
a traced round runs, and puts the originals back afterwards.  Nothing inside
``src/`` is changed.  bvcalc imports functions by name (``from .jetcalc import
collapse``), so every module binding that refers to a wrapped function is
replaced, not only the defining one.

Counters are aggregated on the fly: one record per layer, with a stack of
child times for self time.  No span is stored per call.
"""

from __future__ import annotations

import time

# (module, attribute, extra stat) for every wrapped layer; the metric prefix
# is "<module>.<attribute>".  "mono_out" sums the monomials of returned Exprs;
# "rows_max" is the largest class basis seen after a call.
LAYERS = (
    ("algebra", "_from_raw", "mono_out"),
    ("algebra", "make_attach", "mono_out"),
    ("jetcalc", "channel_partial_left", "mono_out"),
    ("jetcalc", "euler_channelled", "mono_out"),
    ("jetcalc", "euler_right", "mono_out"),
    ("jetcalc", "total_derivative", "mono_out"),
    ("jetcalc", "euler_left", "mono_out"),
    ("jetcalc", "collapse", "mono_out"),
    ("jetcalc", "canonicalize_channels", "mono_out"),
    ("cohomology", "functional_equal", None),
    ("cohomology", "_ClassBasis.expand", "rows_max"),
    ("bv", "schouten_density", "mono_out"),
    ("bv", "laplacian_density", "mono_out"),
)

# Coefficient arithmetic: (method names patched together, metric prefix).
COEFF_OPS = (
    (("__mul__", "__rmul__"), "coeff.mul"),
    (("__add__", "__radd__"), "coeff.add"),
    (("inverse",), "coeff.inverse"),
)

# Bindings the tracer must reach: functions are imported by name into these
# modules, so patching only the defining module would miss their calls.
REQUIRED_BINDINGS = {
    "euler_left": ("jetcalc", "bv", "cohomology", "cli"),
    "collapse": ("jetcalc", "bv", "cohomology", "cli"),
    "canonicalize_channels": ("jetcalc", "cohomology"),
    "_from_raw": ("algebra", "jetcalc"),
    "make_attach": ("algebra", "jetcalc"),
    "functional_equal": ("cohomology", "bv", "cli"),
    "euler_right": ("jetcalc", "bv", "cli"),
    "euler_channelled": ("jetcalc", "bv"),
}


class _Stat:
    __slots__ = ("calls", "s", "self_s", "mono_out", "active", "ops", "int_ops",
                 "max_val")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.mono_out = 0
        self.active = 0
        self.ops = 0
        self.int_ops = 0
        self.max_val = 0


def _is_integral(c) -> bool:
    """True for an hbar-free, real, integral coefficient (or a plain int)."""
    if isinstance(c, int):
        return True
    terms = getattr(c, "terms", None)
    if terms is None:
        return False
    if not terms:
        return True
    if len(terms) != 1 or 0 not in terms:
        return False
    re, im = terms[0]
    return not im and re.denominator == 1


class Tracer:
    """Wraps bvcalc's layers while active; ``stats`` keeps one record per layer."""

    def __init__(self, lib):
        self.lib = lib
        self.stats = {}
        self._stack = []
        self._restore = []
        self.patched = set()  # (module short name, attribute)

    # -- the wrapper -----------------------------------------------------

    def _wrap(self, name, fn, extra=None, on_args=None):
        stat = self.stats.setdefault(name, _Stat())
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if on_args is not None:
                on_args(stat, args)
            stat.active += 1
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stat.active -= 1
                stat.calls += 1
                stat.self_s += dt - child
                if stat.active == 0:  # count a recursive call's time once
                    stat.s += dt
                if stack:
                    stack[-1] += dt
            if extra == "mono_out":
                stat.mono_out += len(result.terms)
            elif extra == "rows_max":
                stat.max_val = max(stat.max_val, len(args[0].rows))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- install / remove ------------------------------------------------

    def _modules(self):
        return {name: getattr(self.lib, name) for name in (
            "coeff", "algebra", "jetcalc", "cohomology", "bv", "models",
            "grammar", "oracle", "cli", "package")}

    def __enter__(self):
        mods = self._modules()
        jetcalc = mods["jetcalc"]

        def count_operands(stat, args):
            for a in args[:2]:
                stat.ops += 1
                if _is_integral(a):
                    stat.int_ops += 1

        labels_of = getattr(jetcalc, "_monomial_labels", None)

        def count_labels(stat, args):
            if labels_of is None:
                return
            for m in args[0].monomials():
                stat.max_val = max(stat.max_val, len(labels_of(m)))

        coefficient = mods["coeff"].Coefficient
        for methods, name in COEFF_OPS:
            fn = coefficient.__dict__.get(methods[0])
            if fn is None:
                continue
            on_args = count_operands if name == "coeff.mul" else None
            wrapped = self._wrap(name, fn, on_args=on_args)
            for method in methods:
                if coefficient.__dict__.get(method) is fn:
                    self._restore.append((coefficient, method, fn))
                    setattr(coefficient, method, wrapped)

        for modname, attr, extra in LAYERS:
            name = f"{modname}.{attr}"
            home = mods[modname]
            if "." in attr:  # a method: patch the class attribute
                cls_name, method = attr.split(".")
                cls = getattr(home, cls_name, None)
                fn = cls.__dict__.get(method) if cls is not None else None
                if fn is None:
                    continue
                self._restore.append((cls, method, fn))
                setattr(cls, method, self._wrap(name, fn, extra=extra))
                self.patched.add((modname, attr))
                continue
            fn = getattr(home, attr, None)
            if fn is None:  # the layer no longer exists: it reads 0
                continue
            on_args = count_labels if attr == "canonicalize_channels" else None
            wrapped = self._wrap(name, fn, extra=extra, on_args=on_args)
            for short, mod in mods.items():
                for binding, value in list(vars(mod).items()):
                    if value is fn:
                        self._restore.append((mod, binding, fn))
                        setattr(mod, binding, wrapped)
                        self.patched.add((short, binding))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        return False

    def missing_bindings(self):
        """Required bindings that exist in the program but were not patched."""
        mods = self._modules()
        missing = []
        for attr, modules in REQUIRED_BINDINGS.items():
            for short in modules:
                if hasattr(mods[short], attr) and (short, attr) not in self.patched:
                    missing.append(f"{short}.{attr}")
        return missing

    # -- results ---------------------------------------------------------

    def metrics(self):
        """Per-layer metric values, named <module>.<function>.<stat>."""
        out = {}
        for _, name in COEFF_OPS:
            st = self.stats.get(name, _Stat())
            out[f"{name}.calls"] = st.calls
            if name != "coeff.inverse":
                out[f"{name}.s"] = st.s
            if name == "coeff.mul":
                out[f"{name}.int_share"] = st.int_ops / st.ops if st.ops else 0.0
        for modname, attr, extra in LAYERS:
            name = f"{modname}.{attr}"
            st = self.stats.get(name, _Stat())
            out[f"{name}.calls"] = st.calls
            out[f"{name}.s"] = st.s
            out[f"{name}.self_s"] = st.self_s
            if extra == "mono_out":
                out[f"{name}.mono_out"] = st.mono_out
        out["jetcalc.canonicalize_channels.labels_max"] = self.stats.get(
            "jetcalc.canonicalize_channels", _Stat()).max_val
        out["cohomology._ClassBasis.expand.rows_max"] = self.stats.get(
            "cohomology._ClassBasis.expand", _Stat()).max_val
        return out
