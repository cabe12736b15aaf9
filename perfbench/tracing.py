"""Spans and counters recorded from outside the planebody package.

The traced run wraps the public entry points of each module, and every
name through which one module calls into another (``cli.integrate``,
``exact.linalg._eig_raw`` and so on), for the duration of a traced
cycle only.  Nothing under ``src/`` is edited: wrappers are installed
with ``setattr`` on the imported modules and removed again afterwards.

A span is ``[name, start, end, parent, item]``; ``name`` is
``<layer>.<entry point>``, ``parent`` is the index of the enclosing span
(-1 at the root) and ``item`` the id of the workload item that caused
it.  Spans stay in memory until the run writes them out at the end.
"""
from __future__ import annotations

import collections
import functools
import importlib
import json
import os
import time

LAYERS = ("linalg", "model", "integrate", "exact", "classify", "scenario", "cli")
EIG_SIZES = (8, 32, 64)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: collections.Counter = collections.Counter()
        self.item = None

    def wrap(self, name, fn, after=None):
        """Return fn recording a span; after(tracer, args, result, seconds) adds counts."""
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.item]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.counts[f"{name}.raised.{getattr(exc, 'code', type(exc).__name__)}"] += 1
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(self, args, result, rec[2] - rec[1])
            return result

        return traced

    def counter(self, key, fn):
        """Return fn counting its calls under key, without a span."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def self_seconds(self) -> collections.Counter:
        """Self time per span name: duration minus the time covered by child spans."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: collections.Counter = collections.Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out

    def busy_seconds(self) -> collections.Counter:
        out: collections.Counter = collections.Counter()
        for name, start, end, _, _ in self.spans:
            out[name] += end - start
        return out

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"fields": ["name", "start_s", "end_s", "parent", "item"], "spans": self.spans},
                fh,
                separators=(",", ":"),
            )
            fh.write("\n")


class _ModuleView:
    """Stand-in for an imported module object with some attributes replaced."""

    def __init__(self, module, overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


def _after_integrate(tr, args, result, seconds):
    stats = result.metadata.get("stats", {})
    tr.counts["integrate.steps_accepted"] += stats.get("accepted", 0)
    tr.counts["integrate.steps_rejected"] += stats.get("rejected", 0)
    tr.counts["integrate.rhs_evals"] += stats.get("rhs_evaluations", 0)


def _after_eig(tr, args, result, seconds):
    n = len(args[0])
    if n in EIG_SIZES:
        tr.counts[f"linalg.eig_s_n{n}"] += seconds


def _after_exact_states(tr, args, result, seconds):
    tr.counts["exact.eval_samples"] += len(args[1])


def _after_eval_pair(tr, args, result, seconds):
    tr.counts["exact.eval_samples"] += 1


def _after_detect(tr, args, result, seconds):
    tr.counts["classify.detect_found"] += result is not None


def _after_write(tr, args, result, seconds):
    tr.counts["cli.csv_bytes"] += os.path.getsize(args[0])


class Instrumentation:
    """Installs and removes the wrappers; `api` always holds callable entry points.

    The workloads call the package only through `api`, so the same item
    code runs plain in untraced cycles and wrapped in traced ones.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        m = {name: importlib.import_module(f"planebody.{name}") for name in LAYERS}
        self.modules = m
        self.plain = {
            "cli_main": m["cli"].main,
            "classify_couplings": m["classify"].classify_couplings,
            "detect_period": m["classify"].detect_period,
            "eigenvalues": m["linalg"].eigenvalues,
            "spectral_solve": m["exact"].spectral_solve,
            "exact_states": m["exact"].exact_states,
        }
        self.api = dict(self.plain)
        self._saved: list[tuple[object, str, object]] = []

    def _patch(self, target, attr, value):
        self._saved.append((target, attr, getattr(target, attr)))
        setattr(target, attr, value)

    def install(self) -> None:
        tr = self.tracer
        m = self.modules
        linalg, exact, classify, cli = m["linalg"], m["exact"], m["classify"], m["cli"]
        eig = tr.wrap("linalg.eig", linalg.eigenvalues, _after_eig)
        eig_raw = tr.wrap("linalg.eig", linalg._eig_raw, _after_eig)
        solve_linear = tr.wrap("linalg.solve", linalg.solve_linear)
        spectral_solve = tr.wrap("exact.solve", exact.spectral_solve)
        exact_states = tr.wrap("exact.eval", exact.exact_states, _after_exact_states)
        row_sums_zero = tr.wrap("exact.row_sums", exact.row_sums_zero)
        classify_fn = tr.wrap("classify.spectrum", classify.classify)
        classify_couplings = tr.wrap("classify.spectrum", classify.classify_couplings)
        detect = tr.wrap("classify.detect", classify.detect_period, _after_detect)

        # imported module objects seen by other layers
        self._patch(exact, "linalg", _ModuleView(linalg, {"_eig_raw": eig_raw, "solve_linear": solve_linear}))
        self._patch(classify, "linalg", _ModuleView(linalg, {"eigenvalues": eig}))
        self._patch(classify, "row_sums_zero", row_sums_zero)
        self._patch(cli, "linalg", _ModuleView(linalg, {"eigenvalues": eig}))
        self._patch(
            cli,
            "exact",
            _ModuleView(
                exact,
                {
                    "spectral_solve": spectral_solve,
                    "exact_states": exact_states,
                    "row_sums_zero": row_sums_zero,
                    "pair_solve": tr.wrap("exact.solve", exact.pair_solve),
                    "eval_pair_solution": tr.wrap(
                        "exact.eval", exact.eval_pair_solution, _after_eval_pair
                    ),
                },
            ),
        )
        # names imported into cli, plus cli's own writers
        self._patch(cli, "integrate", tr.wrap("integrate.integrate", cli.integrate, _after_integrate))
        self._patch(cli, "compare", tr.wrap("integrate.compare", cli.compare))
        for rhs in ("rhs_base", "rhs_generalized", "rhs_pair"):
            self._patch(cli, rhs, tr.wrap("model.rhs", getattr(cli, rhs)))
        self._patch(cli, "parse_scenario", tr.wrap("scenario.parse", cli.parse_scenario))
        self._patch(cli, "classify", classify_fn)
        self._patch(cli, "detect_period", detect)
        self._patch(cli, "write_trajectory_csv", tr.wrap("cli.write", cli.write_trajectory_csv, _after_write))
        self._patch(cli, "_write_lines", tr.wrap("cli.write", cli._write_lines))
        # the origin guard is called per RHS stage and per accepted step: count only
        for mod in (m["model"], m["integrate"]):
            self._patch(mod, "check_origin_guard", tr.counter("model.guard_calls", mod.check_origin_guard))

        self.api = {
            "cli_main": tr.wrap("cli.main", cli.main),
            "classify_couplings": classify_couplings,
            "detect_period": detect,
            "eigenvalues": eig,
            "spectral_solve": spectral_solve,
            "exact_states": exact_states,
        }

    def remove(self) -> None:
        while self._saved:
            target, attr, value = self._saved.pop()
            setattr(target, attr, value)
        self.api = dict(self.plain)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, cycles: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per pool cycle, as {name: (value, unit)}."""
    busy = tracer.busy_seconds()
    own = tracer.self_seconds()
    c = tracer.counts
    calls = collections.Counter(s[0] for s in tracer.spans)

    def per(x):
        return x / cycles

    def ms(x):
        return 1e3 * x / cycles

    self_by_layer = collections.Counter()
    for name, seconds in own.items():
        self_by_layer[name.split(".")[0]] += seconds

    eig_calls = calls["linalg.eig"]
    rhs_calls = calls["model.rhs"]
    accepted = c["integrate.steps_accepted"]
    rejected = c["integrate.steps_rejected"]
    samples = c["exact.eval_samples"]
    detects = calls["classify.detect"]
    out = {
        "linalg.eig_calls": (per(eig_calls), "count/cycle"),
        "linalg.eig_ms": (ms(busy["linalg.eig"]), "ms/cycle"),
    }
    for n in EIG_SIZES:
        out[f"linalg.eig_ms_n{n}"] = (ms(c[f"linalg.eig_s_n{n}"]), "ms/cycle")
    out.update(
        {
            "linalg.solve_calls": (per(calls["linalg.solve"]), "count/cycle"),
            "model.rhs_calls": (per(rhs_calls), "count/cycle"),
            "model.rhs_ms": (ms(busy["model.rhs"]), "ms/cycle"),
            "model.rhs_us_per_call": (1e6 * _ratio(busy["model.rhs"], rhs_calls), "us"),
            "model.guard_calls": (per(c["model.guard_calls"]), "count/cycle"),
            "integrate.calls": (per(calls["integrate.integrate"]), "count/cycle"),
            "integrate.self_ms": (ms(self_by_layer["integrate"]), "ms/cycle"),
            "integrate.steps_accepted": (per(accepted), "count/cycle"),
            "integrate.steps_rejected": (per(rejected), "count/cycle"),
            "integrate.rhs_evals": (per(c["integrate.rhs_evals"]), "count/cycle"),
            "integrate.accept_ratio": (_ratio(accepted, accepted + rejected), "ratio"),
            "exact.solve_calls": (per(calls["exact.solve"]), "count/cycle"),
            "exact.solve_self_ms": (ms(own["exact.solve"]), "ms/cycle"),
            "exact.eval_samples": (per(samples), "count/cycle"),
            "exact.eval_ms": (ms(busy["exact.eval"]), "ms/cycle"),
            "exact.us_per_sample": (1e6 * _ratio(busy["exact.eval"], samples), "us"),
            "exact.blowups": (
                per(sum(v for k, v in c.items() if k.startswith("exact.") and k.endswith(".raised.Overflow"))),
                "count/cycle",
            ),
            "classify.spectrum_calls": (per(calls["classify.spectrum"]), "count/cycle"),
            "classify.detect_calls": (per(detects), "count/cycle"),
            "classify.detect_ms": (ms(busy["classify.detect"]), "ms/cycle"),
            "classify.detect_found_ratio": (_ratio(c["classify.detect_found"], detects), "ratio"),
            "classify.mismatch": (per(c["classify.mismatch"]), "count/cycle"),
            "scenario.parse_calls": (per(calls["scenario.parse"]), "count/cycle"),
            "scenario.parse_ms": (ms(busy["scenario.parse"]), "ms/cycle"),
            "cli.self_ms": (ms(self_by_layer["cli"]), "ms/cycle"),
            "cli.write_ms": (ms(busy["cli.write"]), "ms/cycle"),
            "cli.csv_bytes": (per(c["cli.csv_bytes"]), "bytes/cycle"),
        }
    )
    return out
