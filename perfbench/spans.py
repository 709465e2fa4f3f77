"""Per-layer spans for the traced benchmark run.

The spans are recorded from the benchmark's own code, around the calls into
each layer: every public function of the traced ``wavemix`` modules, plus a
few closures and methods that carry the hot loops, is replaced by a timing
wrapper.  The replacement is made at every module binding of the function,
because ``coupling`` and ``rates`` import ``apply_modewise``, ``linear_ops``,
``simulate_toy`` and others by name: patching only the defining module would
silently miss those calls.

A span's busy time is the union of its calls (nested calls of the same span
count once); its self time is its duration minus the time covered by child
spans.  Counts are recorded at the same boundaries.  Everything is kept in
memory as per-name aggregates and read out once per round.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

MODULES = ("cli", "nlw", "spectral", "observables", "coupling", "ergodic",
           "toys", "rates", "stats")


class _Stat:
    __slots__ = ("calls", "busy", "self_")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self_ = 0.0


class Tracer:
    """Aggregated spans and counts, installed into the loaded ``wavemix`` modules."""

    def __init__(self):
        self._stack: list[list] = []       # [name, time covered by children]
        self._depth: dict[str, int] = defaultdict(int)
        self._mod_depth: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self):
        if self._stack:
            raise RuntimeError("cannot reset the tracer inside a span")
        self.stats: dict[str, _Stat] = defaultdict(_Stat)
        self.mod_busy: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)

    def wrap(self, name: str, fn, post=None):
        """Return ``fn`` timed as span ``name``.

        ``post(result, args, kwargs, parent)`` may record counts and returns
        the value handed back to the caller.
        """
        module = name.split(".", 1)[0]
        stack, depth, mod_depth = self._stack, self._depth, self._mod_depth
        perf = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            depth[name] += 1
            mod_depth[module] += 1
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                depth[name] -= 1
                mod_depth[module] -= 1
                st = self.stats[name]
                st.calls += 1
                st.self_ += dt - frame[1]
                if depth[name] == 0:
                    st.busy += dt
                if mod_depth[module] == 0:
                    self.mod_busy[module] += dt
                if stack:
                    stack[-1][1] += dt
            if post is not None:
                result = post(result, args, kwargs, parent)
            return result
        return span

    # ------------------------------------------------------------------
    # installation

    def install(self):
        """Wrap the layers of every loaded ``wavemix`` module."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = {n: sys.modules[f"wavemix.{n}"] for n in MODULES}
        special = self._special_posts()
        for short, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{short}.{attr}"
                self._rebind(fn, self.wrap(name, fn, special.get(name)))
        self._rebind(mods["rates"].minimize,
                     self._wrap_minimize(mods["rates"].minimize))
        nlw, toys = mods["nlw"], mods["toys"]
        self._patch_attr(nlw.LinearOps, "__init__", "nlw.LinearOps",
                         post=self._count_ops_miss)
        self._patch_attr(nlw.Nonlinearity, "f", "nlw.Nonlinearity.f",
                         post=self._count_coupled_steps)
        self._patch_attr(toys.GradientSDE, "drift", "toys.drift",
                         post=self._count_toy_steps)
        self._patch_attr(toys.OrnsteinUhlenbeck, "drift", "toys.drift",
                         post=self._count_toy_steps)
        self._patch_attr(mods["observables"].Observable, "__call__",
                         "observables.probe")
        basis_cls = mods["spectral"].SpectralBasis
        old = basis_cls.__dict__["eigenfunctions"]
        new = functools.cached_property(self.wrap("spectral.eigenfunctions", old.func))
        new.__set_name__(basis_cls, "eigenfunctions")
        self._set(basis_cls, "eigenfunctions", new)

    def uninstall(self):
        for obj, attr, old in reversed(self._patches):
            setattr(obj, attr, old)
        self._patches.clear()

    def _set(self, obj, attr, value):
        self._patches.append((obj, attr, vars(obj)[attr]))
        setattr(obj, attr, value)

    def _rebind(self, original, wrapped):
        """Replace ``original`` at every binding in the ``wavemix`` package."""
        for modname, mod in list(sys.modules.items()):
            if modname != "wavemix" and not modname.startswith("wavemix."):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._set(mod, attr, wrapped)

    def _patch_attr(self, cls, attr, name, post=None):
        self._set(cls, attr, self.wrap(name, cls.__dict__[attr], post))

    # ------------------------------------------------------------------
    # counts recorded at span boundaries

    def _special_posts(self) -> dict:
        def kick_factory(fn, args, kwargs, parent):
            return self.wrap("nlw.kick", fn, post=self._count_flow_steps)

        def energy_factory(fn, args, kwargs, parent):
            return self.wrap("nlw.energy_fn", fn)

        def streams(gens, args, kwargs, parent):
            return [_NoiseStream(g, self) for g in gens]

        def boundary_chain(rep, args, kwargs, parent):
            self.counts["rates.boundary_chain.transitions"] += int(rep.counts.sum())
            return rep

        return {"nlw.make_kick_fn": kick_factory,
                "nlw.make_energy_fn": energy_factory,
                "nlw.trajectory_streams": streams,
                "rates.boundary_chain": boundary_chain}

    def _count_ops_miss(self, out, args, kwargs, parent):
        # the operator cache builds LinearOps only when the lookup misses
        if parent == "nlw.linear_ops":
            self.counts["nlw.linear_ops.misses"] += 1
        return out

    def _count_flow_steps(self, out, args, kwargs, parent):
        # the kick runs once per Strang step on a (batch, M) position block
        self.counts["nlw.path_steps"] += args[0].shape[0]
        return out

    def _count_coupled_steps(self, out, args, kwargs, parent):
        # the coupled stepper evaluates f once per step on (batch, 3, nodes)
        if parent in ("coupling.couple_fp", "coupling.couple_fp_batch"):
            self.counts["coupling.path_steps"] += args[1].shape[0]
        return out

    def _count_toy_steps(self, out, args, kwargs, parent):
        # Euler-Maruyama loops evaluate the drift once per step on all paths
        if parent == "toys.simulate_toy":
            self.counts["toys.path_steps"] += getattr(args[1], "size", 1)
        elif parent == "rates.boundary_chain":
            self.counts["rates.boundary_chain.path_steps"] += getattr(args[1], "size", 1)
        return out

    def _wrap_minimize(self, minimize):
        objective = functools.partial(self.wrap, "rates.objective")

        def post(res, args, kwargs, parent):
            self.counts["rates.minimize.nit"] += int(getattr(res, "nit", 0))
            self.counts["rates.minimize.nfev"] += int(getattr(res, "nfev", 0))
            return res
        span = self.wrap("rates.minimize", minimize, post)

        @functools.wraps(minimize)
        def traced(fun, *args, **kwargs):
            return span(objective(fun), *args, **kwargs)
        return traced


class _NoiseStream:
    """A trajectory generator whose ``standard_normal`` draws are a span."""

    def __init__(self, gen, tracer: Tracer):
        self._gen = gen

        def post(out, args, kwargs, parent):
            tracer.counts["nlw.noise.draws"] += out.size
            return out
        self.standard_normal = tracer.wrap("nlw.noise", gen.standard_normal, post)

    def __getattr__(self, attr):
        return getattr(self._gen, attr)


# Per-layer metrics of the traced run, in the order they are reported.  A name
# is ``<span>.<calls|busy_s|self_s|builds>``, ``<module>.<busy_s|self_s>`` for
# a whole module, or a named count.  ``trace.*`` are filled in by the runner.
PER_LAYER = (
    ("nlw.apply_modewise.calls", "count"), ("nlw.apply_modewise.busy_s", "s"),
    ("nlw.noise.draws", "count"), ("nlw.noise.busy_s", "s"),
    ("nlw.trajectory_streams.calls", "count"), ("nlw.trajectory_streams.busy_s", "s"),
    ("nlw.kick.calls", "count"), ("nlw.kick.busy_s", "s"),
    ("nlw.Nonlinearity.f.busy_s", "s"),
    ("nlw.energy_fn.calls", "count"), ("nlw.energy_fn.busy_s", "s"),
    ("nlw.run_flow.calls", "count"), ("nlw.run_flow.self_s", "s"),
    ("nlw.linear_ops.calls", "count"), ("nlw.linear_ops.misses", "count"),
    ("nlw.linear_ops.busy_s", "s"),
    ("nlw.path_steps", "count"),
    ("spectral.eigenfunctions.builds", "count"), ("spectral.eigenfunctions.busy_s", "s"),
    ("spectral.phase_norm_sq_arr.calls", "count"),
    ("spectral.phase_norm_sq_arr.busy_s", "s"),
    ("observables.probe.calls", "count"), ("observables.probe.busy_s", "s"),
    ("coupling.couple_fp_batch.calls", "count"), ("coupling.couple_fp_batch.self_s", "s"),
    ("coupling.couple_fp.self_s", "s"), ("coupling.path_steps", "count"),
    ("coupling.mixing_rate.self_s", "s"),
    ("ergodic.feynman_kac_estimate.busy_s", "s"), ("ergodic.pressure_curve.busy_s", "s"),
    ("ergodic.legendre.busy_s", "s"),
    ("toys.simulate_toy.calls", "count"), ("toys.simulate_toy.self_s", "s"),
    ("toys.path_steps", "count"),
    ("toys.drift.calls", "count"), ("toys.drift.busy_s", "s"),
    ("rates.boundary_chain.self_s", "s"), ("rates.boundary_chain.transitions", "count"),
    ("rates.boundary_chain.path_steps", "count"),
    ("rates.minimize.calls", "count"), ("rates.minimize.nit", "count"),
    ("rates.minimize.nfev", "count"), ("rates.minimize.busy_s", "s"),
    ("rates.objective.busy_s", "s"),
    ("stats.busy_s", "s"),
    ("cli.self_s", "s"), ("cli.artifact_bytes", "bytes"),
    ("nlw.self_s", "s"), ("spectral.self_s", "s"), ("observables.self_s", "s"),
    ("coupling.self_s", "s"), ("ergodic.self_s", "s"), ("toys.self_s", "s"),
    ("rates.self_s", "s"), ("stats.self_s", "s"),
    ("trace.wall_s", "s"), ("trace.overhead_s", "s"),
)

COUNTS = ("nlw.noise.draws", "nlw.linear_ops.misses", "nlw.path_steps",
          "coupling.path_steps", "toys.path_steps", "rates.boundary_chain.path_steps",
          "rates.boundary_chain.transitions", "rates.minimize.nit",
          "rates.minimize.nfev", "cli.artifact_bytes")


def layer_values(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric except ``trace.*``, read from one round's spans."""
    out = {}
    for name, _ in PER_LAYER:
        if name.startswith("trace."):
            continue
        if name in COUNTS:
            out[name] = tracer.counts.get(name, 0)
            continue
        span, kind = name.rsplit(".", 1)
        if span in MODULES:
            if kind == "busy_s":
                out[name] = tracer.mod_busy.get(span, 0.0)
            else:
                out[name] = sum((st.self_ for n, st in tracer.stats.items()
                                 if n.split(".", 1)[0] == span), 0.0)
            continue
        st = tracer.stats.get(span, _Stat())
        out[name] = {"calls": st.calls, "builds": st.calls, "busy_s": st.busy,
                     "self_s": st.self_}[kind]
    return out
