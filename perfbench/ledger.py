"""Traced runs: wrappers around ``repro``'s public functions, a span
ledger kept in memory, and the per-layer metrics derived from it.

A layer is a ``repro`` module (``netlist``, ``linalg``, ``perf``,
``mpde``, ``hb``, ``analysis``, ``robust``, ``sensitivity``, ``serve``);
a span's name starts with its layer.  :func:`install` replaces the
public functions listed in ``_TARGETS`` with wrappers that record one
span per call: name, start, end, parent span and the unit being run.
The program's own ``repro.trace`` stays off.  Self time is a span's
duration minus the time its child spans cover.  Counts come from the
wrapped functions' return values and ``report.perf``.

Each thread appends to its own buffers, so server threads and the
serve worker's heartbeat thread need no lock.  Spans of another
process (the serve worker) are written to a file at its exit and
merged by time: ``time.perf_counter`` is the system-wide monotonic
clock, so the driver can place them in its units.
"""

import functools
import importlib
import sys
import threading
import time
from array import array

import numpy as np
import scipy.linalg
import numpy.fft

#: Layers reported in the ``layer.<name>.self_s`` metrics.
LAYERS = (
    "netlist", "linalg", "perf", "mpde", "hb", "analysis", "robust",
    "sensitivity", "serve",
)


class _Buffer:
    """One thread's spans and counts (parallel arrays)."""

    def __init__(self, tid):
        self.tid = tid
        self.stack = []
        self.name = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.parent = array("i")
        self.unit = array("i")
        self.cname = array("i")
        self.cvalue = array("d")
        self.cunit = array("i")
        self.ct = array("d")


class Ledger:
    """In-memory span and count store of one process."""

    def __init__(self):
        self.unit = -1
        self.names = []
        self._ids = {}
        self._local = threading.local()
        self._buffers = []
        self._lock = threading.Lock()
        self.installed = False

    def reset(self):
        """Drop everything recorded so far (a forked child starts clean)."""
        self.unit = -1
        self._local = threading.local()
        self._buffers = []

    def name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _buffer(self):
        buf = getattr(self._local, "buf", None)
        if buf is None:
            with self._lock:
                buf = _Buffer(len(self._buffers))
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def thread_id(self):
        """Buffer id of the calling thread."""
        return self._buffer().tid

    def count(self, name, value):
        buf = self._buffer()
        buf.cname.append(self.name_id(name))
        buf.cvalue.append(float(value))
        buf.cunit.append(self.unit)
        buf.ct.append(time.perf_counter())

    def wrap(self, fn, name, hook=None, pre=None):
        """``fn`` recording one span per call under ``name``.

        ``pre(args, kwargs)`` may rewrite the arguments; ``hook(out)``
        records counts from the return value and returns what the
        caller receives.
        """
        nid = self.name_id(name)
        clock = time.perf_counter
        ledger = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if pre is not None:
                args, kwargs = pre(args, kwargs)
            buf = ledger._buffer()
            stack = buf.stack
            idx = len(buf.t0)
            buf.name.append(nid)
            buf.parent.append(stack[-1] if stack else -1)
            buf.unit.append(ledger.unit)
            buf.t0.append(0.0)
            buf.t1.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                buf.t0[idx] = t0
                buf.t1[idx] = t1
            return out if hook is None else hook(out)

        return wrapper

    def arrays(self):
        """All spans and counts of this process as numpy arrays.

        ``parent`` indexes the returned span arrays (-1 for none).
        """
        names, t0, t1, parent, unit, tid = [], [], [], [], [], []
        cname, cvalue, cunit, ct = [], [], [], []
        offset = 0
        for buf in list(self._buffers):
            # slices copy, so a thread still appending is never blocked
            # by an exported buffer; t1 and ct are appended last
            n = len(buf.t1)
            m = len(buf.ct)
            par = np.frombuffer(buf.parent[:n], dtype=np.int32).astype(np.int64)
            parent.append(np.where(par >= 0, par + offset, -1))
            names.append(np.frombuffer(buf.name[:n], dtype=np.int32))
            t0.append(np.frombuffer(buf.t0[:n]))
            t1.append(np.frombuffer(buf.t1[:n]))
            unit.append(np.frombuffer(buf.unit[:n], dtype=np.int32))
            tid.append(np.full(n, buf.tid))
            cname.append(np.frombuffer(buf.cname[:m], dtype=np.int32))
            cvalue.append(np.frombuffer(buf.cvalue[:m]))
            cunit.append(np.frombuffer(buf.cunit[:m], dtype=np.int32))
            ct.append(np.frombuffer(buf.ct[:m]))
            offset += n

        def cat(parts, dtype):
            return np.concatenate(parts).astype(dtype) if parts else np.zeros(0, dtype)

        return {
            "names": np.array(self.names, dtype=object),
            "name": cat(names, np.int64), "t0": cat(t0, float),
            "t1": cat(t1, float), "parent": cat(parent, np.int64),
            "unit": cat(unit, np.int64), "tid": cat(tid, np.int64),
            "cname": cat(cname, np.int64), "cvalue": cat(cvalue, float),
            "cunit": cat(cunit, np.int64), "ct": cat(ct, float),
        }

    def dump(self, path):
        """Write the spans and counts out (at the end of a traced run)."""
        arrs = self.arrays()
        arrs["names"] = np.array(self.names, dtype=str)
        np.savez_compressed(path, **arrs)


LEDGER = Ledger()


# -- wrapped functions ---------------------------------------------------

def _hook_newton(out):
    LEDGER.count("linalg.newton.iters", out.iterations)
    return out


def _hook_gmres(out):
    LEDGER.count("linalg.gmres.iters", out.iterations)
    return out


def _hook_report(res):
    """Escalations and factor-cache lookups from an analysis result."""
    report = getattr(res, "report", None)
    if report is not None:
        LEDGER.count("robust.escalations", max(0, len(report.attempts) - 1))
        perf = report.perf or {}
        hits, misses = perf.get("factor_hits", 0), perf.get("factor_misses", 0)
        LEDGER.count("perf.factor.hits", hits)
        LEDGER.count("perf.factor.lookups", hits + misses)
    return res


def _hook_transient(out):
    LEDGER.count("analysis.transient.steps", len(out.t) - 1)
    LEDGER.count("analysis.transient.rejected", out.rejected_steps)
    return _hook_report(out)


def _hook_hb(out):
    LEDGER.count("mpde.newton_iters", out.newton_iterations)
    LEDGER.count("mpde.gmres_iters", out.gmres_iterations)
    # on the GMRES path every factor-cache miss is one averaged-circuit
    # preconditioner build (m dense LUs)
    LEDGER.count("mpde.precond_builds", (out.report.perf or {}).get("factor_misses", 0))
    return _hook_report(out)


def _hook_explore(out):
    LEDGER.count("sensitivity.corners", out.stats["npoints"])
    LEDGER.count("sensitivity.fallbacks", out.stats["fallbacks"])
    LEDGER.count("sensitivity.newton_iters", out.stats["newton_iterations"])
    return out


def _hook_submit(out):
    LEDGER.count("serve.submits", 1)
    LEDGER.count("serve.cached", 1 if out.get("cached") else 0)
    return out


def _hook_factor(solve):
    return LEDGER.wrap(solve, "perf.solve")


def _pre_sweep(args, kwargs):
    """Time each sweep item as a child span of the ``sweep_map`` span."""
    args, kwargs = list(args), dict(kwargs)
    fn = args[0] if args else kwargs["fn"]
    module = getattr(fn, "__module__", None) or type(fn).__module__
    layer = module.split(".")[1] if module.startswith("repro.") else "other"
    for pos, key, wrap in (
        (0, "fn", lambda f: LEDGER.wrap(f, f"{layer}.sweep_item")),
        (1, "items", list),
    ):
        if len(args) > pos:
            args[pos] = wrap(args[pos])
        else:
            kwargs[key] = wrap(kwargs[key])
    items = args[1] if len(args) > 1 else kwargs["items"]
    LEDGER.count("perf.sweep.items", len(items))
    return tuple(args), kwargs


#: (module[:class], attribute, span name, hook, pre) per wrapped callable.
_TARGETS = (
    ("repro.netlist.mna:MNASystem", "f", "netlist.eval", None, None),
    ("repro.netlist.mna:MNASystem", "q", "netlist.eval", None, None),
    ("repro.netlist.mna:MNASystem", "G", "netlist.eval", None, None),
    ("repro.netlist.mna:MNASystem", "C", "netlist.eval", None, None),
    ("repro.netlist.mna:MNASystem", "batch_fq", "netlist.eval", None, None),
    ("repro.netlist.mna:MNASystem", "batch_jacobians", "netlist.eval", None, None),
    ("repro.netlist.mna:MNASystem", "refresh_stamps", "netlist.stamp", None, None),
    ("repro.netlist.circuit:Circuit", "compile", "netlist.stamp", None, None),
    ("repro.netlist.parser", "parse_netlist", "netlist.stamp", None, None),
    ("repro.linalg.newton", "newton_solve", "linalg.newton", _hook_newton, None),
    ("repro.linalg.gmres", "gmres", "linalg.gmres", _hook_gmres, None),
    ("repro.perf.factorcache", "make_factor_solver", "perf.factor", _hook_factor, None),
    ("repro.perf.sweep", "sweep_map", "perf.sweep", None, _pre_sweep),
    ("repro.mpde.mpde_core", "solve_mpde", "mpde.solve", None, None),
    ("repro.hb.hb_core", "harmonic_balance", "hb.solve", _hook_hb, None),
    ("repro.analysis.dc", "dc_analysis", "analysis.dc", _hook_report, None),
    ("repro.analysis.transient", "transient_analysis", "analysis.transient",
     _hook_transient, None),
    ("repro.analysis.ac", "ac_analysis", "analysis.ac", None, None),
    ("repro.robust.validate", "preflight", "robust.lint", None, None),
    ("repro.serve.runner", "lint_spec", "robust.lint", None, None),
    ("repro.sensitivity.explore", "explore", "sensitivity.explore", _hook_explore, None),
    ("repro.serve.client:ServeClient", "submit", "serve.http.submit", _hook_submit, None),
    ("repro.serve.client:ServeClient", "status", "serve.http.status", None, None),
    ("repro.serve.client:ServeClient", "result", "serve.http.result", None, None),
    ("repro.serve.wal:WriteAheadLog", "append", "serve.wal.append", None, None),
    ("repro.serve.wal:WriteAheadLog", "replay", "serve.wal.replay", None, None),
    ("repro.serve.store:ResultStore", "put", "serve.store.put", None, None),
    ("repro.serve.store:ResultStore", "get_blob", "serve.store.get", None, None),
    ("repro.serve.store:ResultStore", "has", "serve.store.get", None, None),
    ("repro.serve.queue:JobQueue", "try_lease", "serve.lease", None, None),
    ("repro.serve.queue:JobQueue", "release_lease", "serve.lease", None, None),
    ("repro.serve.queue:JobQueue", "heartbeat", "serve.lease", None, None),
    ("repro.serve.queue:JobQueue", "reclaim_expired", "serve.lease", None, None),
    ("repro.serve.runner", "run_job", "serve.solve", None, None),
)


_BENCH_MODULES = ("workloads", "circuits")


class _Proxy:
    """A module stand-in: overridden attributes first, the module after."""

    def __init__(self, module, **overrides):
        self.__dict__.update(overrides)
        self._module = module

    def __getattr__(self, name):
        return getattr(self._module, name)


def _rebind(old, new):
    """Point every module global bound to ``old`` at ``new``.

    Covers ``repro`` and the benchmark's own modules, which import some
    entry points by name.
    """
    for name, mod in list(sys.modules.items()):
        if mod is None or not (
            name == "repro" or name.startswith("repro.") or name in _BENCH_MODULES
        ):
            continue
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)


def install():
    """Wrap the public functions of every layer (idempotent)."""
    if LEDGER.installed:
        return
    for target, attr, name, hook, pre in _TARGETS:
        module_name, _, cls_name = target.partition(":")
        module = importlib.import_module(module_name)
        if cls_name:
            cls = getattr(module, cls_name)
            setattr(cls, attr, LEDGER.wrap(getattr(cls, attr), name, hook, pre))
        else:
            fn = getattr(module, attr)
            _rebind(fn, LEDGER.wrap(fn, name, hook, pre))
    # dense LU and FFT calls made from repro.mpde
    sla = _Proxy(
        scipy.linalg,
        lu_factor=LEDGER.wrap(scipy.linalg.lu_factor, "mpde.lu_factor"),
        lu_solve=LEDGER.wrap(scipy.linalg.lu_solve, "mpde.lu_solve"),
    )
    fft = _Proxy(numpy.fft, **{
        fn: LEDGER.wrap(getattr(numpy.fft, fn), "mpde.fft")
        for fn in ("fft", "ifft", "fftn", "ifftn", "rfft", "irfft")
    })
    npx = _Proxy(np, fft=fft)
    for name, mod in list(sys.modules.items()):
        if mod is None or not name.startswith("repro.mpde."):
            continue
        if vars(mod).get("sla") is scipy.linalg:
            mod.sla = sla
        if vars(mod).get("np") is np:
            mod.np = npx
    LEDGER.installed = True


# -- per-layer metrics ---------------------------------------------------

def merge(base, other):
    """Concatenate another process's arrays (``other``) onto ``base``."""
    names = list(base["names"])
    remap = []
    for n in other["names"]:
        n = str(n)
        if n not in names:
            names.append(n)
        remap.append(names.index(n))
    remap = np.asarray(remap, dtype=np.int64)
    n0 = base["t0"].size
    tid0 = int(base["tid"].max()) + 1 if base["tid"].size else 0
    out = {"names": np.array(names, dtype=object)}
    for key in ("t0", "t1", "unit", "cvalue", "cunit", "ct"):
        out[key] = np.concatenate([base[key], other[key]])
    out["name"] = np.concatenate([base["name"], remap[other["name"]]])
    out["cname"] = np.concatenate([base["cname"], remap[other["cname"]]])
    par = other["parent"]
    out["parent"] = np.concatenate([base["parent"], np.where(par >= 0, par + n0, -1)])
    out["tid"] = np.concatenate([base["tid"], other["tid"] + tid0])
    return out


def assign_units(times, unit, windows):
    """Unit index for each time in ``times`` whose ``unit`` is -1."""
    unit = unit.copy()
    starts = np.array([w[0] for w in windows])
    ends = np.array([w[1] for w in windows])
    k = np.searchsorted(starts, times, side="right") - 1
    inside = (k >= 0) & (times <= ends[np.clip(k, 0, None)])
    todo = unit < 0
    unit[todo & inside] = k[todo & inside]
    return unit


def layer_metrics(arrs, windows, factors, main_tid, jobs):
    """Per-layer metrics of the traced units, as ``{name: (value, unit)}``.

    ``windows`` are the traced units' (start, end) clock times and
    ``factors`` their calibration factors (reference / measured speed);
    every time is calibrated with its unit's factor.  ``main_tid`` is the
    driver's main thread and ``jobs`` the number of fetched service jobs.
    Also returns the name of the layer with the most self time.
    """
    names = [str(n) for n in arrs["names"]]
    unit = assign_units(arrs["t0"], arrs["unit"], windows)
    keep = unit >= 0
    dur = arrs["t1"] - arrs["t0"]
    nested = arrs["parent"] >= 0
    child = np.zeros(dur.size)
    np.add.at(child, arrs["parent"][nested], dur[nested])
    factor = np.asarray(factors)[np.clip(unit, 0, None)]
    self_s = (dur - child) * factor
    span_layer = np.array([n.split(".")[0] for n in names] + [""], dtype=object)[arrs["name"]]

    def pick(span_name):
        nid = names.index(span_name) if span_name in names else -1
        return keep & (arrs["name"] == nid)

    cunit = assign_units(arrs["ct"], arrs["cunit"], windows)
    counts = {}
    for nid, value in zip(arrs["cname"][cunit >= 0], arrs["cvalue"][cunit >= 0]):
        counts[names[nid]] = counts.get(names[nid], 0.0) + value

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for span in ("netlist.eval", "netlist.stamp", "linalg.newton", "linalg.gmres",
                 "perf.factor", "perf.solve", "analysis.dc", "robust.lint"):
        m[f"{span}.calls"] = (int(np.count_nonzero(pick(span))), "count")
        m[f"{span}.self_s"] = (float(self_s[pick(span)].sum()), "s")
    for key in ("linalg.newton.iters", "linalg.gmres.iters", "perf.sweep.items",
                "mpde.newton_iters", "mpde.gmres_iters", "mpde.precond_builds",
                "analysis.transient.steps", "analysis.transient.rejected",
                "robust.escalations", "sensitivity.corners", "sensitivity.fallbacks",
                "sensitivity.newton_iters"):
        m[key] = (counts.get(key, 0.0), "count")
    m["perf.factor.hit_ratio"] = (
        ratio(counts.get("perf.factor.hits", 0.0), counts.get("perf.factor.lookups", 0.0)),
        "ratio",
    )
    for key, span in (("perf.sweep.dispatch_s", "perf.sweep"),
                      ("mpde.lu_factor.self_s", "mpde.lu_factor"),
                      ("mpde.lu_solve.self_s", "mpde.lu_solve"),
                      ("mpde.fft.self_s", "mpde.fft"),
                      ("serve.wal.append_s", "serve.wal.append"),
                      ("serve.wal.replay_s", "serve.wal.replay"),
                      ("serve.store.put_s", "serve.store.put"),
                      ("serve.store.get_s", "serve.store.get"),
                      ("serve.lease_s", "serve.lease"),
                      ("serve.solve_s", "serve.solve")):
        m[key] = (float(self_s[pick(span)].sum()), "s")
    for key, span in (("serve.http.submit_s", "serve.http.submit"),
                      ("serve.http.result_s", "serve.http.result")):
        sel = pick(span)
        m[key] = (float(np.median(dur[sel] * factor[sel])) if sel.any() else 0.0, "s")
    m["serve.http.status_polls"] = (
        ratio(np.count_nonzero(pick("serve.http.status")), jobs), "count/job"
    )
    m["serve.wal.appends"] = (int(np.count_nonzero(pick("serve.wal.append"))), "count")
    m["serve.cache_hit_ratio"] = (
        ratio(counts.get("serve.cached", 0.0), counts.get("serve.submits", 0.0)), "ratio"
    )

    layers = {L: float(self_s[keep & (span_layer == L)].sum()) for L in LAYERS}
    top = max(layers, key=layers.get)
    wall = sum((w[1] - w[0]) * f for w, f in zip(windows, factors))
    main = float(self_s[keep & (arrs["tid"] == main_tid)].sum())
    m["unattributed_s"] = (wall - main, "s")
    m["top_layer.share"] = (ratio(layers[top], sum(layers.values())), "ratio")
    for L in LAYERS:
        m[f"layer.{L}.self_s"] = (layers[L], "s")
    return m, top
