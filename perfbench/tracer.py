"""Per-layer tracing for the benchmark, installed from outside the program.

The tracer replaces the public entry points of each lbesim module with
timing wrappers and restores them on `uninstall()`. Nothing under
`src/lbesim/` knows it is being traced.

Attribution is by a call stack of wrapped frames. A frame's self time is
its duration minus the durations of the wrapped frames it called, and it is
charged to the frame's layer. Event handlers are wrapped where they are
scheduled (`Simulator.schedule_at_ns`) and charged to the module that
defined them, so engine time is `run_until` minus the handler spans plus
the `schedule_at_ns`/`cancel` calls made from handlers. Work done in a
frame without a wrapped call (reading `Simulator.now`, the seconds-to-ns
conversion in `schedule_after`, building a `Packet`) is charged to the
caller's layer.

Per-packet boundaries are aggregated in memory as per-name call count,
total time and self time. Coarse boundaries (sweep, scenario, `run_until`,
`build_report`, emit) are also kept as real spans with a parent id.
"""

import inspect
import time

LAYERS = ("engine", "network", "transport", "controllers", "metrics", "harness")

# Largest share of the traced wall time that no wrapper below the sweep
# covers (time outside every layer, plus the self time of `run_sweep`,
# where the work of a lost wrapper would land) before the self-check fails.
UNATTRIBUTED_MAX = 0.02


_LAYER_OF_MODULE = {"lbesim." + layer: layer for layer in LAYERS}


def _length(series):
    """Length of a recorded series; 0 where the program keeps none."""
    return len(series) if series is not None else 0


class Tracer:
    def __init__(self):
        self.self_ns = dict.fromkeys(LAYERS + ("other",), 0)
        self.calls = {}        # name -> [count, total_ns, self_ns]
        self.handlers = {}     # event kind -> [count, total_ns]
        self.counts = {"cancel_ok": 0, "drops": 0, "dupack": 0,
                       "timeout": 0, "input_tuples": 0}
        self.spans = []        # (id, parent_id, name, start_ns, end_ns)
        self.links, self.flows, self.run_stats = [], [], []
        self._stack = []       # child-time accumulator per open frame
        self._open_spans = []  # ids of open coarse spans
        self._patches = []

    # -- wrappers ----------------------------------------------------------

    def _timed(self, fn, layer, name, span=False):
        """Wrap fn as a frame of `layer`, aggregated under `name`; with
        span=True also record it as a span with its parent."""
        stack, clock, self_ns = self._stack, time.perf_counter_ns, self.self_ns
        stat = self.calls.setdefault(name, [0, 0, 0])
        spans, open_spans = self.spans, self._open_spans

        def frame(*args, **kwargs):
            stack.append(0)
            if span:
                sid = len(spans)
                spans.append(None)
                parent = open_spans[-1] if open_spans else None
                open_spans.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                d = t1 - t0
                own = d - stack.pop()
                self_ns[layer] += own
                if stack:
                    stack[-1] += d
                stat[0] += 1
                stat[1] += d
                stat[2] += own
                if span:
                    open_spans.pop()
                    spans[sid] = (sid, parent, name, t0, t1)
        return frame

    def _handler(self, kind, fn):
        stack, clock, self_ns = self._stack, time.perf_counter_ns, self.self_ns
        layer = _LAYER_OF_MODULE.get(getattr(fn, "__module__", None), "other")
        stat = self.handlers.get(kind) or self.handlers.setdefault(kind, [0, 0])

        def handler():
            stack.append(0)
            t0 = clock()
            try:
                fn()
            finally:
                d = clock() - t0
                self_ns[layer] += d - stack.pop()
                if stack:
                    stack[-1] += d
                stat[0] += 1
                stat[1] += d
        return handler

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _wrap(self, owner, attr, layer, name=None, span=False):
        fn = getattr(owner, attr)
        wrapped = self._timed(fn, layer, name or attr, span)
        self._patch(owner, attr, wrapped)

    # -- install / uninstall ---------------------------------------------

    def install(self):
        from lbesim import controllers, engine, harness, metrics, network, transport

        sim_cls = engine.Simulator
        run_until = self._timed(sim_cls.run_until, "engine", "engine.run_until", span=True)
        sched = self._timed(sim_cls.schedule_at_ns, "engine", "engine.schedule_at_ns")
        cancel = self._timed(sim_cls.cancel, "engine", "engine.cancel")
        tracer = self

        def traced_run_until(sim, t_end_s):
            stats = run_until(sim, t_end_s)
            tracer.run_stats.append(stats)
            return stats

        def traced_schedule_at_ns(sim, at_ns, kind, fn, label=""):
            return sched(sim, at_ns, kind, tracer._handler(kind, fn), label)

        def traced_cancel(sim, handle):
            ok = cancel(sim, handle)
            tracer.counts["cancel_ok"] += ok
            return ok

        self._patch(sim_cls, "run_until", traced_run_until)
        self._patch(sim_cls, "schedule_at_ns", traced_schedule_at_ns)
        self._patch(sim_cls, "cancel", traced_cancel)

        link_cls = network.BottleneckLink
        enqueue = self._timed(link_cls.enqueue, "network", "network.enqueue")
        link_init = self._timed(link_cls.__init__, "network", "network.init")

        def traced_enqueue(link, p):
            ok = enqueue(link, p)
            if not ok:
                tracer.counts["drops"] += 1
            return ok

        def traced_link_init(link, *args, **kwargs):
            link_init(link, *args, **kwargs)
            tracer.links.append(link)

        self._patch(link_cls, "enqueue", traced_enqueue)
        self._patch(link_cls, "__init__", traced_link_init)
        # transport imported the function by name, so patch its reference
        self._wrap(transport, "return_path_send", "network", "network.return_path_send")

        flow_cls = transport.FlowEndpoint
        flow_init = self._timed(flow_cls.__init__, "transport", "transport.init")

        def traced_flow_init(flow, *args, **kwargs):
            flow_init(flow, *args, **kwargs)
            tracer.flows.append(flow)

        self._patch(flow_cls, "__init__", traced_flow_init)
        for attr in ("start", "on_data_arrival", "on_ack_arrival"):
            self._wrap(flow_cls, attr, "transport", "transport." + attr)

        for cls in (controllers.RenoController, controllers.LpController,
                    controllers.NiceController, controllers.LedbatController):
            proto = cls.protocol
            self._wrap(cls, "on_ack", "controllers", "controllers.%s.on_ack" % proto)
            on_loss = self._timed(cls.on_loss, "controllers",
                                  "controllers.%s.on_loss" % proto)

            def traced_on_loss(ctl, flow, kind, _on_loss=on_loss):
                tracer.counts[kind] += 1
                return _on_loss(ctl, flow, kind)

            self._patch(cls, "on_loss", traced_on_loss)

        build_report = self._timed(metrics.build_report, "metrics",
                                   "metrics.build_report", span=True)
        report_args = inspect.signature(metrics.build_report)

        def traced_build_report(*args, **kw):
            # counted by parameter name, so a changed signature gives 0
            given = report_args.bind_partial(*args, **kw).arguments
            tracer.counts["input_tuples"] += (
                _length(given.get("queue_samples"))
                + sum(_length(getattr(c, "deliveries", None))
                      for c in given.get("flows") or ()))
            return build_report(*args, **kw)

        self._patch(metrics, "build_report", traced_build_report)
        self._wrap(metrics, "_fmt", "metrics", "metrics.fmt")
        self._wrap(metrics.MetricsReport, "csv_row", "metrics", "metrics.csv_row")

        self._wrap(harness, "run_sweep", "harness", "harness.run_sweep", span=True)
        self._wrap(harness, "run_scenario", "harness", "harness.run_scenario", span=True)
        self._wrap(harness, "sweep_csv", "harness", "harness.sweep_csv")
        self._wrap(harness, "emit_plot_data", "harness", "harness.emit_plot_data", span=True)
        return self

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def span(self, name, fn, *args):
        """Run fn(*args) as a coarse harness span named `name`."""
        return self._timed(fn, "harness", name, span=True)(*args)

    # -- results -----------------------------------------------------------

    def _stat(self, name):
        return self.calls.get(name, [0, 0, 0])

    def metrics(self, wall_s):
        """Per-layer metrics of one traced workload run."""
        from lbesim.harness import PROTOCOLS

        ns = 1e-9
        events = sum(c for c, _ in self.handlers.values())
        sched = self._stat("engine.schedule_at_ns")[0]
        enq = self._stat("network.enqueue")[0]
        acks = self._stat("transport.on_ack_arrival")[0]
        self_s = {layer: v * ns for layer, v in self.self_ns.items()}
        out = {
            "engine.events_dispatched": events,
            "engine.schedule_calls": sched,
            "engine.cancel_calls": self._stat("engine.cancel")[0],
            "engine.cancelled_share": self.counts["cancel_ok"] / sched if sched else 0.0,
            "engine.self_s": self_s["engine"],
            "engine.ns_per_event": self.self_ns["engine"] / events if events else 0.0,
            "network.enqueue_calls": enq,
            "network.drops": self.counts["drops"],
            "network.self_s": self_s["network"],
            "network.us_per_pkt": self.self_ns["network"] / enq / 1e3 if enq else 0.0,
            "network.queue_samples": sum(_length(getattr(l, "queue_samples", None))
                                         for l in self.links),
            "transport.data_arrivals": self._stat("transport.on_data_arrival")[0],
            "transport.acks": acks,
            "transport.retransmits": sum(getattr(f, "packets_sent", 0) - getattr(f, "snd_next", 0)
                                         for f in self.flows),
            "transport.self_s": self_s["transport"],
            "transport.us_per_ack": self.self_ns["transport"] / acks / 1e3 if acks else 0.0,
            "transport.delivery_tuples": sum(_length(getattr(f, "goodput_events", None))
                                             for f in self.flows),
        }
        for proto in PROTOCOLS:
            calls, _, own = self._stat("controllers.%s.on_ack" % proto)
            out["controllers.%s.on_ack_calls" % proto] = calls
            out["controllers.%s.ns_per_on_ack" % proto] = own / calls if calls else 0.0
        out["controllers.on_loss_dupack"] = self.counts["dupack"]
        out["controllers.on_loss_timeout"] = self.counts["timeout"]
        out["controllers.self_s"] = self_s["controllers"]
        out["metrics.build_report_s"] = self._stat("metrics.build_report")[1] * ns
        out["metrics.input_tuples"] = self.counts["input_tuples"]
        out["metrics.self_s"] = self_s["metrics"]
        out["harness.run_scenario_s"] = self._stat("harness.run_scenario")[1] * ns
        out["harness.self_s"] = self_s["harness"]
        out["harness.emit_s"] = self._stat("harness.emit")[1] * ns
        attributed = sum(self_s[layer] for layer in LAYERS)
        uncovered = wall_s - attributed + self._stat("harness.run_sweep")[2] * ns
        out["trace.unattributed_share"] = uncovered / wall_s
        return out

    def reconcile(self, out, wall_s):
        """Return the list of failed reconciliation checks (empty if none)."""
        errors = []
        processed = sum(s.events_processed for s in self.run_stats)
        if out["engine.events_dispatched"] != processed:
            errors.append("engine.events_dispatched %d != RunStats.events_processed %d"
                          % (out["engine.events_dispatched"], processed))
        sent = sum(f.packets_sent for f in self.flows)
        if out["network.enqueue_calls"] != sent:
            errors.append("network.enqueue_calls %d != sum(packets_sent) %d"
                          % (out["network.enqueue_calls"], sent))
        dropped = sum(l.total_dropped for l in self.links)
        if out["network.drops"] != dropped:
            errors.append("network.drops %d != link.total_dropped %d"
                          % (out["network.drops"], dropped))
        if not 0.0 <= out["trace.unattributed_share"] <= UNATTRIBUTED_MAX:
            errors.append("wrappers below the sweep cover %.4f of the traced wall time; "
                          "unattributed share must be in [0, %g]"
                          % (1.0 - out["trace.unattributed_share"], UNATTRIBUTED_MAX))
        if self._stack or self._open_spans:
            errors.append("tracer stack not empty at the end of the run")
        return errors

    def span_records(self):
        """Coarse spans as dicts, times in seconds from the first span."""
        t0 = self.spans[0][3] if self.spans else 0
        return [{"id": sid, "parent": parent, "name": name,
                 "start_s": (start - t0) * 1e-9, "end_s": (end - t0) * 1e-9}
                for sid, parent, name, start, end in self.spans]
