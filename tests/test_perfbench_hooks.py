"""The benchmark's hooks into chowkit: traced names, the worker's calls and
the worker's output checks.

``perfbench/tracing.py`` wraps chowkit functions by identity and two methods
on their classes, and ``perfbench/worker.py`` calls the library with fixed
keywords and checks each op's output against independent data.  These tests
read those contracts from the library side, so a change that breaks
``--trace 1``, the worker or a benchmark check fails here.
"""

import importlib
import importlib.util
import inspect
import json
from pathlib import Path

import pytest

import chowkit
from chowkit import Divisor, div_over_order, make_field, order_from_conductor
from chowkit.quadfield import QElement

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    """perfbench/<name>.py as a module, read from its file and not edited."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracing():
    return _load("tracing")


@pytest.fixture(scope="module")
def bench():
    """(workloads, worker); the worker imports its sibling ``speed``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        return _load("workloads"), _load("worker")


def test_traced_names_resolve(tracing):
    for modname, func in tracing.TRACED:
        mod = importlib.import_module(f"chowkit.{modname}")
        fn = getattr(mod, func)
        assert inspect.isfunction(fn), (modname, func)
        assert fn.__module__ == mod.__name__, (modname, func)
    for modname, cls_name, attr, _ in tracing.TRACED_METHODS:
        cls = getattr(importlib.import_module(f"chowkit.{modname}"), cls_name)
        assert inspect.isfunction(cls.__dict__[attr]), (cls_name, attr)


def test_worker_calls_under_the_tracer(tracing):
    # the principal-warm worker's calls, with its keywords, traced and undone;
    # like the worker, they go through the chowkit namespace at call time
    tracer = tracing.Tracer()
    undo = tracer.install()
    try:
        order = order_from_conductor(make_field(-23), 10)
        tracer.begin_op(0)
        witness = chowkit.divisor_kernel_witness(order, bound=1)
        alpha = QElement.from_omega(order.field, 3, 1) * QElement.from_omega(order.field, -1, 2)
        D = div_over_order(order, alpha)
        res = chowkit.principal_divisor_test(order, Divisor("order", D.support),
                                             max_steps=20000)
        tracer.end_op(True)
    finally:
        for owner, attr, original in undo:
            setattr(owner, attr, original)
    assert witness is not None and div_over_order(order, witness).is_zero()
    assert res.status == "principal" and div_over_order(order, res.generator) == D
    metrics = tracer.metrics()
    assert metrics["orders.divisor_kernel_witness.calls"] == 1
    assert metrics["chow.principal_divisor_test.calls"] == 1
    assert metrics["quadfield.is_principal.calls"] >= 2
    assert metrics["orders.divisor_kernel_witness.none"] == 0
    assert metrics["quadfield.is_principal.bound_exceeded"] == 0


@pytest.mark.parametrize("workload, n_ops", [
    ("table-cold", 16), ("principal-warm", 20), ("declared-chow", 12)])
def test_benchmark_checks_pass(bench, tmp_path, workload, n_ops):
    # a few seeded ops of each workload through the worker's own set-up, op
    # and check functions, in process; the inputs go through JSON as they
    # do on the way to the worker
    workloads, worker = bench
    generate = {
        "table-cold": lambda: workloads.table_cold(1, n_ops),
        "principal-warm": lambda: workloads.principal_warm(1, n_ops),
        "declared-chow": lambda: workloads.declared_chow(1, n_ops, str(tmp_path)),
    }[workload]
    inputs = json.loads(json.dumps(generate()))
    setup, execute, check = worker.WORKLOADS[workload]
    state = setup(inputs["setup"])
    assert len(inputs["ops"]) == n_ops
    for k, op in enumerate(inputs["ops"]):
        assert check(state, op, execute(state, op)) is None, (k, op)
