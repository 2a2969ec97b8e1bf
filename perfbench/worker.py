"""One workload process: set-up, the timed closed loop, and the output checks.

Started by run.py in a fresh interpreter, one at a time, so no class-group or
unit cache carries over from another workload or run.  One client, one
thread: each op starts after the previous one has finished.  Modes:

  setup   import chowkit and do the workload's set-up, nothing else;
  timed   then run ops in order until they have taken --seconds of scaled
          time (speed.py), so that the number of ops, and with it the
          tail percentile, does not move with the host's speed; at most
          twice --seconds of wall time;
  count   then run exactly --count ops (optionally traced).

Every op runs under the wall-clock limit --limit.

The result (set-up time, per-op latencies and statuses, output digest, peak
RSS and, when traced, the per-layer numbers) goes to --out as JSON.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import signal
import sys
import time
from time import perf_counter

import speed

_ROOT = os.getcwd()


class OpTimeout(BaseException):
    """Raised by SIGALRM when an op exceeds its limit (not an Exception, so
    no handler in the program can swallow it)."""


def _alarm(signum, frame):
    raise OpTimeout()


def run_limited(fn, limit):
    """(status, output, seconds) of fn() under a wall-clock limit."""
    t0 = perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, limit)
            out = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        return "timeout", None, perf_counter() - t0
    except Exception as exc:  # recorded as a failed op, never dropped
        return "error", f"{type(exc).__name__}: {exc}", perf_counter() - t0
    return "ok", out, perf_counter() - t0


def cli_call(argv):
    """In-process chowkit.cli.main; returns [exit code, stdout]."""
    from chowkit import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return [code, out.getvalue()]


def elt(a):
    return None if a is None else [a.x, a.y, a.den]


# --- table-cold -----------------------------------------------------------------


def table_setup(setup):
    return None


def table_op(state, op):
    disc = ["--disc", str(op["d"])]
    order = disc + ["--conductor", str(op["f"]), "--json"]
    return json.dumps([
        cli_call(["order-info"] + order),
        cli_call(["chow"] + order),
        cli_call(["find-trivial"] + disc + ["--json"]),
        cli_call(["conductor-test"] + disc + ["--ideal", op["ideal"], "--json"]),
    ])


# forms counts up to this |discriminant| take at most ~10 ms each
CHEAP_FORM_COUNT = 300_000


def _card(invariants):
    n = 1
    for v in invariants:
        n *= v
    return n


def table_check(state, op, output):
    from chowkit.quadfield import reduced_form_count

    (c_info, info), (c_chow, chow), (c_triv, triv), (c_cond, cond) = json.loads(output)
    if c_info != 0 or c_chow != 0 or c_triv not in (0, 1) or c_cond not in (0, 1):
        return f"exit codes {c_info}, {c_chow}, {c_triv}, {c_cond}"
    info, chow, triv, cond = (json.loads(s) for s in (info, chow, triv, cond))
    if not chow["consistent"]:
        return "chow: consistent is false"
    if info["chow"] != chow["chow"]:
        return "order-info and chow disagree on the Chow group"
    if triv["found"] != (c_triv == 0) or (triv["found"] and triv["chow"]):
        return "find-trivial verdict does not match its Chow group"
    if cond["conductor_ideal"] != (c_cond == 0) or cond["conductor_ideal"] != (cond["violator"] is None):
        return "conductor-test verdict does not match its exit code"
    d, f = op["d"], op["f"]
    if f > 1 and info["pic"]["relative_units"] != op["relative_units"]:
        return "pic.relative_units differs from prod p^(e-1) (p - (d/p))"
    if op["unit_index"] is not None and info["pic"]["unit_index"] != op["unit_index"]:
        return "pic.unit_index differs from the order of eps modulo Z + fO~"
    if d < 0 and f * f * -d <= CHEAP_FORM_COUNT:
        if f == 1:
            if _card(info["chow"]) != reduced_form_count(d):
                return "|Cl| differs from the reduced form count"
        else:
            if info["pic"]["cl"] != reduced_form_count(d):
                return "pic.cl differs from the reduced form count of d"
            if info["pic"]["pic"] != reduced_form_count(f * f * d):
                return "pic.pic differs from the reduced form count of f^2 d"
    return None


# --- principal-warm ---------------------------------------------------------------


def principal_setup(setup):
    """Fields, their class groups and units, and the fixed orders."""
    from chowkit import class_group, fundamental_unit, make_field, order_from_conductor

    fields = {}
    for d in setup["fields"]:
        field = make_field(d)
        class_group(field)
        if field.is_real:
            fundamental_unit(field)
        fields[d] = field
    orders = [order_from_conductor(fields[d], f) for d, f in setup["orders"]]
    return {"fields": fields, "orders": orders}


# Generator search budget (steps of the box search) for principal tests, and
# the coefficient box of the kernel-witness search.  The box search and the
# witness's own generator search grow without limit in the input size (tens
# of seconds for one op); with these bounds every op ends well within the
# per-op limit and ends the same way on every run.
SEARCH_STEPS = 20_000
WITNESS_BOX = 1


def principal_op(state, op):
    from chowkit import (Divisor, SearchBoundExceeded, divisor_kernel_witness,
                         order_from_conductor, principal_divisor_test)

    if op["kind"] == "witness":
        order = order_from_conductor(state["fields"][op["d"]], op["f"])
        return json.dumps({"witness": elt(divisor_kernel_witness(order, bound=WITNESS_BOX))})
    try:
        res = principal_divisor_test(state["orders"][op["order"]], Divisor("order", op["divisor"]),
                                     max_steps=SEARCH_STEPS)
    except SearchBoundExceeded:
        return json.dumps({"status": "bound-exceeded", "step": None, "generator": None})
    return json.dumps({"status": res.status, "step": res.failing_step,
                       "generator": elt(res.generator)})


def principal_check(state, op, output):
    from chowkit import div_over_order, order_from_conductor
    from chowkit.quadfield import QElement

    out = json.loads(output)
    if op["kind"] == "witness":
        if out["witness"] is None:
            return None  # coefficient bound exhausted: allowed, counted in the trace
        order = order_from_conductor(state["fields"][op["d"]], op["f"])
        a = QElement(order.field, *out["witness"])
        u, v, den = a.omega_coords()
        if not div_over_order(order, a).is_zero():
            return "witness has a nonzero divisor"
        if den == 1 and v % order.conductor == 0:
            return "witness lies in the order"
        return None
    if out["status"] == "bound-exceeded":
        # the search budget ran out: allowed only where a generator exists
        return None if op["principal"] else "search ran for a non-principal divisor"
    if (out["status"] == "principal") != op["principal"]:
        return f"verdict {out['status']}, expected principal={op['principal']}"
    if op["principal"]:
        order = state["orders"][op["order"]]
        g = QElement(order.field, *out["generator"])
        if div_over_order(order, g).support != {k: v for k, v in op["divisor"].items() if v}:
            return "div_O(generator) differs from D"
    return None


# --- declared-chow ----------------------------------------------------------------


def declared_setup(setup):
    return {}  # filled by declared_check: file -> (presentation, |det|)


def declared_op(state, op):
    src = ["--data", op["file"], "--order", "all", "--json"]
    return json.dumps([
        cli_call(["chow"] + src),
        cli_call(["order-info"] + src),
        cli_call(["principal"] + src + ["--divisor", op["divisor"]]),
    ])


def declared_check(state, op, output):
    from chowkit import Divisor, IntMatrix, chow_group, declared_order
    from chowkit.declared import load_declared

    (c_chow, chow), (c_info, info), (c_pr, pr) = json.loads(output)
    if c_chow != 0 or c_info != 0 or c_pr not in (0, 1):
        return f"exit codes {c_chow}, {c_info}, {c_pr}"
    chow, info, pr = json.loads(chow), json.loads(info), json.loads(pr)
    if not chow["consistent"]:
        return "chow: consistent is false"
    if info["chow"] != chow["chow"]:
        return "order-info and chow disagree on the Chow group"
    path = op["file"]
    if path not in state:
        decl = load_declared(path)
        pres = chow_group(declared_order(decl, decl.prime_labels))
        # the square G/R presentation: moduli of Cl/N, then the R rows
        r = len(pres.order.primes)
        moduli = pres.cl_mod_n.invariant_factors
        rows = [[0] * (r + len(moduli)) for _ in moduli]
        for j, m in enumerate(moduli):
            rows[j][r + j] = m
        square = IntMatrix(rows + pres.relations.tolists(), cols=r + len(moduli))
        state[path] = (pres, abs(square.det()))
    pres, det = state[path]
    if _card(chow["chow"]) != det:
        return f"|Chow| = {_card(chow['chow'])} but |det(G/R)| = {det}"
    support = {}
    for item in op["divisor"].split(","):
        label, coeff = item.split(":")
        support[label] = int(coeff)
    expected = pres.project(Divisor("order", support)).is_identity()
    if (c_pr == 0) != expected:
        return f"principal exit {c_pr}, projection says principal={expected}"
    return None


WORKLOADS = {
    "table-cold": (table_setup, table_op, table_check),
    "principal-warm": (principal_setup, principal_op, principal_check),
    "declared-chow": (declared_setup, declared_op, declared_check),
}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spawn-time", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "timed", "count"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--limit", type=float, default=1.0)
    ap.add_argument("--count", type=int, default=0)
    ap.add_argument("--rss-ops", type=int, default=0,
                    help="read the peak RSS before op number RSS_OPS (at the end if fewer ran)")
    ap.add_argument("--trace-file", help="trace the ops and write spans here")
    args = ap.parse_args()

    t_read = time.monotonic()
    with open(args.inputs, encoding="utf-8") as handle:
        inputs = json.load(handle)
    read_s = time.monotonic() - t_read

    sys.path.insert(0, os.path.join(_ROOT, "src"))
    import chowkit  # noqa: F401  (part of the measured set-up)

    tracer = None
    if args.trace_file:
        # installed before set-up, so class groups built there count as seen
        from tracing import Tracer

        tracer = Tracer()
        undo = tracer.install()
    setup, execute, check = WORKLOADS[args.workload]
    state = setup(inputs["setup"])
    result = {"setup_s": time.monotonic() - args.spawn_time - read_s}
    speed.reference()  # warm-up
    ref = speed.calibrate()
    result["setup_ref_s"] = ref
    if args.mode == "setup":
        _write(args.out, result)
        return

    if tracer:
        tracer.clear()
    signal.signal(signal.SIGALRM, _alarm)
    ops = inputs["ops"]
    cyclic = inputs.get("cyclic", False)  # ops that fill no cache may repeat
    statuses, latencies, outputs, refs = [], [], [], []
    segment = 0      # first op since the last calibration
    start = last_cal = perf_counter()
    rss_mb = None
    scaled_so_far = 0.0  # by the latest calibration; the final scaling is below
    i = 0
    while cyclic or i < len(ops):
        if args.mode == "timed" and (scaled_so_far >= args.seconds
                                     or perf_counter() - start >= 2 * args.seconds):
            break
        if args.mode == "count" and i >= args.count:
            break
        if i == args.rss_ops:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer:
            tracer.begin_op(i)
        status, out, secs = run_limited(lambda: execute(state, ops[i % len(ops)]), args.limit)
        if tracer:
            tracer.end_op(status == "ok")
        statuses.append(status)
        latencies.append(secs)
        outputs.append(out)
        scaled_so_far += speed.scale(secs, ref)
        i += 1
        if perf_counter() - last_cal >= speed.EVERY:
            # ops since the last calibration get the mean of the two around them
            new = speed.calibrate()
            refs += [(ref + new) / 2] * (i - segment)
            ref, segment, last_cal = new, i, perf_counter()
    new = speed.calibrate()
    refs += [(ref + new) / 2] * (i - segment)
    result["elapsed_s"] = perf_counter() - start
    result["exhausted"] = args.mode == "timed" and not cyclic and i == len(ops)
    result["peak_rss_mb"] = rss_mb or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["rss_ops"] = min(i, args.rss_ops)
    result["scaled"] = [speed.scale(t, r) for t, r in zip(latencies, refs)]
    if tracer:
        result["layers"] = tracer.metrics()
        result["spans"] = tracer.write_spans(args.trace_file)
        for owner, attr, original in undo:
            setattr(owner, attr, original)

    # checks run outside the timed region, each under a generous limit
    digest = hashlib.sha256()
    problems = []
    for k, (status, out) in enumerate(zip(statuses, outputs)):
        if status == "ok":
            verdict, why, _ = run_limited(lambda: check(state, ops[k % len(ops)], out), 60.0)
            if verdict != "ok" or why is not None:
                statuses[k] = "wrong"
                problems.append(f"op {k}: {why if verdict == 'ok' else verdict}")
        elif status == "error":
            problems.append(f"op {k}: {out}")
        digest.update(f"{k}\t{status}\t{out}\n".encode())
    result.update(statuses=statuses, latencies=latencies, digest=digest.hexdigest(),
                  problems=problems[:20])
    _write(args.out, result)


def _write(path, doc):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)


if __name__ == "__main__":
    main()
