"""Span recording around the package's layer boundaries, from outside.

``Tracer.install()`` rebinds, in every loaded ``jacobiflow`` module, each
public function to a wrapper that records a span, and adds the boundaries a
plain rebinding cannot reach: the rhs closure handed to ``integrate``, the
``RK45`` stepper class ``jacobiflow.flow`` instantiates, the recording helper
``flow._record``, ``ConformalMetric.factor_at``, the ``components`` callables
of catalog entries, and the runner table of the CLI.  Only a traced process
installs it; untraced runs execute the unmodified program.

A span is (id, name, start, end, cpu, parent, leg, thread): wall-clock
start and end, and the CPU time its thread spent inside it.  Busy time is
taken from the CPU clock because the legs of a sweep share the interpreter
lock: a leg waiting for the lock is open but not working.  Ids come from one
process wide counter, so a parent's id is always below its children's.  Each
thread keeps its own stack of open spans and its own buffer of finished
ones, so the CLI's sweep threads record without locks; a span opened with an
empty stack takes the innermost span open in the thread that started the
sweep as its parent.  Spans stay in memory until ``spans()`` collects them.
"""

import dataclasses
import functools
import itertools
import os
import threading
import types
from array import array
from collections import Counter
from time import perf_counter_ns, thread_time_ns

import numpy as np

PACKAGE = "jacobiflow"


COLUMNS = ("ids", "names", "starts", "ends", "cpu", "parents", "legs", "threads")


class _ThreadState:
    def __init__(self, thread):
        self.thread = thread
        self.stack = []
        self.leg = -1
        self.counts = Counter()
        self.ids = array("q")
        self.names = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.cpu = array("q")
        self.parents = array("q")
        self.legs = array("i")
        self.threads = array("i")


class Tracer:
    def __init__(self):
        self._ids = itertools.count()
        self._legs = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states = []
        self._codes = {}
        self.names = []
        # innermost open span of the thread that fans out sweep legs
        self.root = -1

    # -- recording ----------------------------------------------------

    def _state(self):
        try:
            return self._local.state
        except AttributeError:
            with self._lock:
                state = _ThreadState(len(self._states))
                self._states.append(state)
            self._local.state = state
            return state

    def code(self, name):
        with self._lock:
            if name not in self._codes:
                self._codes[name] = len(self.names)
                self.names.append(name)
            return self._codes[name]

    def count(self, key, n):
        self._state().counts[key] += n

    def wrap(self, fn, name, post=None, leg=False):
        """fn wrapped in a span called name.  post(result, args) may replace
        the result; leg=True starts a new leg id for the call's duration."""
        code = self.code(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = tracer._state()
            sid = next(tracer._ids)
            parent = st.stack[-1] if st.stack else tracer.root
            outer_leg = st.leg
            if leg:
                st.leg = next(tracer._legs)
            st.stack.append(sid)
            start = perf_counter_ns()
            cpu = thread_time_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                cpu = thread_time_ns() - cpu
                end = perf_counter_ns()
                st.stack.pop()
                st.ids.append(sid)
                st.names.append(code)
                st.starts.append(start)
                st.ends.append(end)
                st.cpu.append(cpu)
                st.parents.append(parent)
                st.legs.append(st.leg)
                st.threads.append(st.thread)
                st.leg = outer_leg
            if post is not None:
                result = post(result, args)
            return result

        return traced

    def spans(self):
        """All finished spans as arrays ordered by id."""
        with self._lock:
            states = list(self._states)
        cols = {}
        for key in COLUMNS:
            cols[key] = np.concatenate(
                [np.frombuffer(getattr(s, key), dtype=getattr(s, key).typecode)
                 for s in states]) if states else np.empty(0)
        order = np.argsort(cols["ids"], kind="stable")
        return {key: col[order] for key, col in cols.items()}

    def counts(self):
        total = Counter()
        with self._lock:
            for s in self._states:
                total.update(s.counts)
        return dict(total)

    # -- installation -------------------------------------------------

    def install(self, modules):
        """Wrap the public functions of the given jacobiflow modules at
        every module binding, plus the extra boundaries listed above."""
        by_name = {m.__name__: m for m in modules}
        flow = by_name[PACKAGE + ".flow"]
        cli = by_name[PACKAGE + ".cli"]
        transforms = by_name[PACKAGE + ".transforms"]
        runners = set(cli.RUNNERS.values())
        posts = {
            by_name[PACKAGE + ".catalog"].catalog_entry: self._trace_entry,
            cli.write_csv: self._count_bytes,
            cli.write_summary: self._count_bytes,
        }
        self._root_sweeps(cli)
        wrapped = {}

        def traced_version(fn):
            if fn not in wrapped:
                layer = fn.__module__.rsplit(".", 1)[-1]
                name = f"{layer}.{fn.__name__}"
                inner = self._wrap_rhs_argument(fn) if fn is flow.integrate else fn
                wrapped[fn] = self.wrap(inner, name, post=posts.get(fn),
                                        leg=fn in runners)
            return wrapped[fn]

        for module in modules:
            for attr, value in list(vars(module).items()):
                if (isinstance(value, types.FunctionType) and not attr.startswith("_")
                        and value.__module__.startswith(PACKAGE + ".")):
                    setattr(module, attr, traced_version(value))
        for task, runner in list(cli.RUNNERS.items()):
            cli.RUNNERS[task] = traced_version(runner)
        flow._record = self.wrap(flow._record, "flow.record")
        flow.RK45 = self._stepper_class(flow.RK45)
        cls = transforms.ConformalMetric
        cls.factor_at = self.wrap(cls.factor_at, "transforms.factor_at")

    def _wrap_rhs_argument(self, integrate):
        """integrate() with its rhs argument wrapped in a span named after
        the factory that made the closure; .system survives the wrap."""
        tracer = self

        @functools.wraps(integrate)
        def entry(rhs, *args, **kwargs):
            factory = rhs.__qualname__.split(".<locals>")[0]
            layer = rhs.__module__.rsplit(".", 1)[-1]
            return integrate(tracer.wrap(rhs, f"{layer}.{factory}.rhs"), *args, **kwargs)

        return entry

    def _trace_entry(self, entry, args):
        spatial = entry.spatial
        components = self.wrap(spatial.components, "catalog.components")
        return dataclasses.replace(
            entry, spatial=dataclasses.replace(spatial, components=components))

    def _count_bytes(self, result, args):
        self.count("cli.write.bytes", os.path.getsize(args[0]))
        return result

    def _root_sweeps(self, cli):
        """Parent sweep legs on the run_scenario span that waits for them:
        legs start on pool threads whose stacks are empty."""
        tracer = self
        run_scenario = cli.run_scenario

        @functools.wraps(run_scenario)
        def rooted(scn):
            outer = tracer.root
            tracer.root = tracer._state().stack[-1]
            try:
                return run_scenario(scn)
            finally:
                tracer.root = outer

        cli.run_scenario = rooted

    def _stepper_class(self, base):
        """RK45 subclass counting accepted and rejected steps: every attempt
        costs n_stages rhs evaluations, so attempts follow from nfev."""
        tracer = self
        traced_step = self.wrap(base.step, "flow.stepper.step")
        traced_dense = self.wrap(base.dense_output, "flow.stepper.dense_output")
        dense_eval = self.wrap(lambda sol, t: sol(t), "flow.record.dense_eval")

        class TracedRK45(base):
            def step(self):
                nfev = self.nfev
                msg = traced_step(self)
                attempts = (self.nfev - nfev) // self.n_stages
                accepted = int(self.status != "failed")
                tracer.count("flow.steps_accepted", accepted)
                tracer.count("flow.steps_rejected", attempts - accepted)
                return msg

            def dense_output(self):
                return functools.partial(dense_eval, traced_dense(self))

        return TracedRK45
