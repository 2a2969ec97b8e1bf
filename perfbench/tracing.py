"""Per-layer tracing of chowkit from outside the package.

``Tracer.install()`` replaces each traced function, by identity, in every
``chowkit.*`` module namespace that binds it (so aliases such as
``chow.field_class_group`` and the call-time imports inside ``chow.py`` and
``orders.py`` are caught too), and the two traced methods on their classes.
Every call becomes a span (id, parent, op, name, start, end) kept in flat
in-memory arrays; calls, inclusive and self time (inclusive time minus the
time of traced children) are summed per function.  A few counters are
derived from arguments and return values only.  Tracing never changes a
return value or an exception.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
from array import array
from time import perf_counter_ns

TRACED = (
    ("cli", "main"),
    ("declared", "parse_declared"),
    ("declared", "declared_order"),
    ("chow", "chow_group"),
    ("chow", "exact_sequence_data"),
    ("chow", "principal_divisor_test"),
    ("chow", "pic_cardinality"),
    ("chow", "pic_chow_report"),
    ("chow", "find_trivial_chow_conductor"),
    ("orders", "order_from_conductor"),
    ("orders", "conductor_test"),
    ("orders", "prop_fix_report"),
    ("orders", "divisor_kernel_witness"),
    ("quadfield", "make_field"),
    ("quadfield", "class_group"),
    ("quadfield", "is_principal"),
    ("quadfield", "fundamental_unit"),
    ("abgroup", "quotient"),
    ("abgroup", "subgroup_quotient"),
    ("abgroup", "solve_combination"),
    ("ntheory", "factorize"),
    ("ntheory", "sqrt_mod"),
    ("ntheory", "is_prime"),
)
# (module, class, attribute, reported name)
TRACED_METHODS = (
    ("quadfield", "ClassGroupData", "dlog", "quadfield.ClassGroupData.dlog"),
    ("quadfield", "QIdeal", "__mul__", "quadfield.QIdeal.mul"),
)

# Extra counters: (name, unit, better), in report order.
COUNTERS = (
    ("quadfield.class_group.misses", "count", "lower"),
    ("quadfield.class_group.hit_ratio", "ratio", "higher"),
    ("quadfield.class_group.miss_ms", "ms", "lower"),
    ("quadfield.class_group.h_max", "count", "lower"),
    ("quadfield.is_principal.norm_bits_max", "bits", "lower"),
    ("quadfield.is_principal.bound_exceeded", "count", "lower"),
    ("quadfield.fundamental_unit.eps_bits_max", "bits", "lower"),
    ("chow.pic_cardinality.unit_index_sum", "count", "lower"),
    ("chow.principal_divisor_test.not_principal", "count", "higher"),
    ("orders.divisor_kernel_witness.none", "count", "lower"),
    ("abgroup.quotient.max_cells", "count", "lower"),
    ("abgroup.quotient.lift_bits_max", "bits", "lower"),
    ("ntheory.factorize.max_bits", "bits", "lower"),
    ("declared.parse_declared.bytes", "bytes", "lower"),
)
# Counted only for ops that complete, so they repeat exactly for a seed: a
# timed-out op may have finished some of its calls, more or fewer by speed.
PER_OP = (
    "quadfield.is_principal.bound_exceeded",
    "chow.pic_cardinality.unit_index_sum",
    "chow.principal_divisor_test.not_principal",
    "orders.divisor_kernel_witness.none",
)


def traced_names():
    return [f"{m}.{f}" for m, f in TRACED] + [name for *_, name in TRACED_METHODS]


def metric_specs():
    """(name, unit, better) of every per-layer metric, trace overhead last."""
    out = []
    for name in traced_names():
        out += [(f"{name}.calls", "count", "lower"), (f"{name}.ms", "ms", "lower"),
                (f"{name}.self_ms", "ms", "lower")]
    return out + list(COUNTERS) + [("trace.overhead_frac", "ratio", "lower")]


def _bits(n):
    return abs(n).bit_length()


class Tracer:
    def __init__(self):
        self.names = traced_names()
        n = len(self.names)
        self.calls = [0] * n
        self.incl_ns = [0] * n
        self.self_ns = [0] * n
        self.op = -1
        self._stack = []            # [span id, child ns] per open span
        self._next_id = 0
        # flat span table, one entry per finished span
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.span_name = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.count = {name: 0 for name, _, _ in COUNTERS}
        self._pending = dict.fromkeys(PER_OP, 0)
        self._class_seen = set()

    # -- counters from arguments and return values ---------------------------

    def _observe(self, name, args, result, dur_ns, ok, error):
        c = self.count
        if name == "quadfield.class_group":
            d = args[0].d
            if d not in self._class_seen:
                self._class_seen.add(d)
                c["quadfield.class_group.misses"] += 1
                c["quadfield.class_group.miss_ms"] += dur_ns / 1e6
            if ok:
                c["quadfield.class_group.h_max"] = max(
                    c["quadfield.class_group.h_max"], result.cardinality())
        elif name == "quadfield.is_principal":
            bits = args[1].norm().numerator.bit_length()
            c["quadfield.is_principal.norm_bits_max"] = max(
                c["quadfield.is_principal.norm_bits_max"], bits)
            if type(error).__name__ == "SearchBoundExceeded":
                self._pending["quadfield.is_principal.bound_exceeded"] += 1
        elif name == "ntheory.factorize":
            c["ntheory.factorize.max_bits"] = max(c["ntheory.factorize.max_bits"],
                                                  _bits(args[0]))
        elif name == "declared.parse_declared":
            c["declared.parse_declared.bytes"] += len(args[0].encode())
        elif not ok:
            return
        elif name == "quadfield.fundamental_unit":
            c["quadfield.fundamental_unit.eps_bits_max"] = max(
                c["quadfield.fundamental_unit.eps_bits_max"], _bits(result.x), _bits(result.y))
        elif name == "chow.pic_cardinality":
            order = args[0]
            if order.field.is_real and order.conductor != 1:
                # the loop multiplies by eps once per index step after the first
                self._pending["chow.pic_cardinality.unit_index_sum"] += result.unit_index - 1
        elif name == "chow.principal_divisor_test":
            self._pending["chow.principal_divisor_test.not_principal"] += (
                result.status == "not-principal")
        elif name == "orders.divisor_kernel_witness":
            self._pending["orders.divisor_kernel_witness.none"] += result is None
        elif name == "abgroup.quotient":
            rel = args[1]
            rows = rel.rows if hasattr(rel, "rows") else len(rel)
            c["abgroup.quotient.max_cells"] = max(c["abgroup.quotient.max_cells"],
                                                  rows * int(args[0]))
            bits = max((_bits(v) for m in (result.basis_change, result.generator_lifts)
                        for row in m.tolists() for v in row), default=0)
            c["abgroup.quotient.lift_bits_max"] = max(c["abgroup.quotient.lift_bits_max"], bits)

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fid, fn):
        name = self.names[fid]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0]
            stack.append(frame)
            ok = False
            result = error = None
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = perf_counter_ns()
                stack.pop()
                dur = end - start
                self.calls[fid] += 1
                self.incl_ns[fid] += dur
                self.self_ns[fid] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                self.span_id.append(sid)
                self.span_parent.append(parent)
                self.span_op.append(self.op)
                self.span_name.append(fid)
                self.span_start.append(start)
                self.span_end.append(end)
                self._observe(name, args, result, dur, ok, error)

        return traced

    def install(self):
        """Wrap every traced function and method; returns the undo list."""
        undo = []
        for modname, _ in TRACED:
            importlib.import_module(f"chowkit.{modname}")
        mods = {name: mod for name, mod in list(sys.modules.items())
                if name == "chowkit" or name.startswith("chowkit.")}
        for fid, (modname, func) in enumerate(TRACED):
            original = getattr(mods[f"chowkit.{modname}"], func)
            wrapper = self._wrap(fid, original)
            for mod in mods.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        undo.append((mod, attr, original))
        for k, (modname, cls_name, attr, _) in enumerate(TRACED_METHODS):
            cls = getattr(mods[f"chowkit.{modname}"], cls_name)
            original = cls.__dict__[attr]
            setattr(cls, attr, self._wrap(len(TRACED) + k, original))
            undo.append((cls, attr, original))
        return undo

    def clear(self):
        """Drop everything recorded so far except the discriminants seen."""
        seen = self._class_seen
        self.__init__()
        self._class_seen = seen

    def begin_op(self, op):
        """Tag the following spans with op; drop frames a timeout left open."""
        self.op = op
        self._stack.clear()

    def end_op(self, ok):
        """Add the op's PER_OP counts only if the whole op completed."""
        for name in PER_OP:
            if ok:
                self.count[name] += self._pending[name]
            self._pending[name] = 0

    # -- results -------------------------------------------------------------

    def metrics(self):
        out = {}
        for fid, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[fid]
            out[f"{name}.ms"] = self.incl_ns[fid] / 1e6
            out[f"{name}.self_ms"] = self.self_ns[fid] / 1e6
        out.update(self.count)
        calls = out["quadfield.class_group.calls"]
        misses = self.count["quadfield.class_group.misses"]
        out["quadfield.class_group.hit_ratio"] = (calls - misses) / calls if calls else 0.0
        return out

    def write_spans(self, path):
        """All spans as gzip'd tab-separated text, one line per span."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as out:
            out.write("span\tparent\top\tname\tstart_ns\tend_ns\n")
            names = self.names
            for row in zip(self.span_id, self.span_parent, self.span_op, self.span_name,
                           self.span_start, self.span_end):
                out.write(f"{row[0]}\t{row[1]}\t{row[2]}\t{names[row[3]]}\t{row[4]}\t{row[5]}\n")
        return len(self.span_id)
