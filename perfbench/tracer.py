"""Spans and work counts around the public functions of each modfesh layer.

The tracer replaces every binding of a public function (the defining module,
and every modfesh module that imported the name) with a wrapper that records
a span: name, start, end, parent span and job id.  numpy.linalg.eigh is
wrapped too, but a span is recorded only when the caller is modfesh.floquet.
Spans live in flat arrays while the run lasts and are written once at the end.
A span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = ("specfun", "atomdata", "lightshift", "floquet", "scattering",
          "spectra", "fitting", "keyvalue")

SPECTRA_WRITERS = ("write_spectrum_csv", "write_spectrum_json", "write_energy_map_csv")
SPECTRA_READERS = ("read_spectrum_csv", "read_spectrum_json")


def _path_arg(args, kwargs, index):
    return kwargs["path"] if "path" in kwargs else args[index]


def _count_hooks():
    """Per-function work counters: name -> (on_return, on_raise)."""
    def lm_return(c, args, kwargs, result):
        c["fitting.levenberg_marquardt.iterations"] += result.iterations

    def lm_raise(c, args, kwargs, exc):
        c["fitting.levenberg_marquardt.failed"] += 1
        c["fitting.levenberg_marquardt.iterations"] += kwargs.get("max_iter", 200)

    def fano_raise(c, args, kwargs, exc):
        c["spectra.fit_fano.failed"] += 1

    def peaks(c, args, kwargs, result):
        c["spectra.peaks_found"] += len(result)

    def map_rows(c, args, kwargs, result):
        c["spectra.map_rows"] += len(result)

    def synth(c, args, kwargs, result):
        c["spectra.synth_points"] += len(result)

    def written(c, args, kwargs, result):
        c["spectra.io.bytes_written"] += os.path.getsize(_path_arg(args, kwargs, 1))

    def read(c, args, kwargs, result):
        c["spectra.io.bytes_read"] += os.path.getsize(_path_arg(args, kwargs, 0))

    def elements(c, args, kwargs, result):
        c["scattering.loss_rate_proxy.elements"] += int(np.size(args[0]))

    hooks = {
        "fitting.levenberg_marquardt": (lm_return, lm_raise),
        "spectra.fit_fano": (None, fano_raise),
        "spectra.find_peaks": (peaks, None),
        "spectra.assemble_energy_map": (map_rows, None),
        "spectra.synthesize_spectrum": (synth, None),
        "spectra.synthesize_field_scan": (synth, None),
        "scattering.loss_rate_proxy": (elements, None),
    }
    hooks.update({f"spectra.{n}": (written, None) for n in SPECTRA_WRITERS})
    hooks.update({f"spectra.{n}": (read, None) for n in SPECTRA_READERS})
    return hooks


class Tracer:
    """In-memory span recorder; install() patches, uninstall() restores."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.eigh_dims = 0
        self.counts = Counter()
        self.job = -1
        self._stack = []
        self._patches = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        index = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_job.append(self.job)
        self.span_end.append(0.0)
        self._stack.append(index)
        self.span_start.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        self.span_end[index] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, on_return=None, on_raise=None):
        tracer = self
        name_id = self.name_id(name)
        counts = self.counts

        def traced(*args, **kwargs):
            index = tracer.open(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.close(index)
                if on_raise is not None:
                    on_raise(counts, args, kwargs, exc)
                raise
            tracer.close(index)
            if on_return is not None:
                on_return(counts, args, kwargs, result)
            return result

        return functools.update_wrapper(traced, fn)

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "modfesh" or name.startswith("modfesh."))]
        hooks = _count_hooks()
        for layer in LAYERS:
            module = sys.modules[f"modfesh.{layer}"]
            for attr in module.__all__:
                fn = getattr(module, attr)
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapper = self.wrap(name, fn, *hooks.get(name, (None, None)))
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            self._patches.append((mod, key, fn))
                            setattr(mod, key, wrapper)
        self._patch_eigh()

    def _patch_eigh(self) -> None:
        linalg = np.linalg
        eigh = linalg.eigh
        tracer = self

        def traced_eigh(a, *args, **kwargs):
            if sys._getframe(1).f_globals.get("__name__") != "modfesh.floquet":
                return eigh(a, *args, **kwargs)
            tracer.eigh_dims += int(np.shape(a)[0])
            return tracer.call("floquet.eigh", eigh, a, *args, **kwargs)

        self._patches.append((linalg, "eigh", eigh))
        linalg.eigh = traced_eigh

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches.clear()

    def call(self, name: str, fn, *args, **kwargs):
        """Call fn inside one span named name."""
        index = self.open(self.name_id(name))
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(index)

    # -- results -------------------------------------------------------------

    def arrays(self):
        return dict(
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32).copy(),
            parent=np.frombuffer(self.span_parent, dtype=np.int32).copy(),
            job=np.frombuffer(self.span_job, dtype=np.int32).copy(),
            start=np.frombuffer(self.span_start, dtype=np.float64).copy(),
            end=np.frombuffer(self.span_end, dtype=np.float64).copy(),
        )

    def save(self, path) -> None:
        with open(path, "wb") as fh:
            np.savez(fh, **self.arrays())

    def metrics(self, verbs) -> dict:
        """Per-layer metrics over all recorded spans (totals, seconds)."""
        a = self.arrays()
        name, parent = a["name"], a["parent"]
        duration = a["end"] - a["start"]
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=duration[has_parent],
                                 minlength=name.size)
        self_time = duration - child_time
        span_layer = np.array([n.split(".")[0] for n in self.names])[name]
        parent_name = np.where(has_parent, name[parent], -1)
        parent_layer = np.where(has_parent, span_layer[parent], "")

        def select(*span_names):
            return np.isin(name, [self._ids.get(n, -2) for n in span_names])

        def calls(*span_names):
            return int(np.count_nonzero(select(*span_names)))

        def self_s(*span_names):
            return float(self_time[select(*span_names)].sum())

        def total_s(*span_names):
            return float(duration[select(*span_names)].sum())

        def layer_self_s(layer):
            return float(self_time[span_layer == layer].sum())

        def ratio(num, den):
            return num / den if den else 0.0

        c = self.counts
        lm_in_fano = np.count_nonzero(select("fitting.levenberg_marquardt")
                                      & (parent_name == self._ids.get("spectra.fit_fano", -2)))
        gaps = calls("floquet.avoided_crossing_gap")
        eighs = calls("floquet.eigh")
        fits = calls("spectra.fit_fano")
        m = {
            "floquet.avoided_crossing_gap.calls": gaps,
            "floquet.avoided_crossing_gap.self_s": self_s("floquet.avoided_crossing_gap"),
            "floquet.eigh.calls": eighs,
            "floquet.eigh.s": total_s("floquet.eigh"),
            "floquet.eigh.mean_dim": ratio(self.eigh_dims, eighs),
            "floquet.eigh_per_gap": ratio(eighs, gaps),
            "fitting.levenberg_marquardt.calls": calls("fitting.levenberg_marquardt"),
            "fitting.levenberg_marquardt.iterations":
                c["fitting.levenberg_marquardt.iterations"],
            "fitting.levenberg_marquardt.failed": c["fitting.levenberg_marquardt.failed"],
            "fitting.levenberg_marquardt.self_s": self_s("fitting.levenberg_marquardt"),
            "fitting.starts_per_fit": ratio(int(lm_in_fano), fits),
            "spectra.fit_fano.calls": fits,
            "spectra.fit_fano.failed": c["spectra.fit_fano.failed"],
            "spectra.fit_fano.self_s": self_s("spectra.fit_fano"),
            "spectra.fano_profile.calls": calls("spectra.fano_profile"),
            "spectra.find_peaks.calls": calls("spectra.find_peaks"),
            "spectra.find_peaks.self_s": self_s("spectra.find_peaks"),
            "spectra.peaks_found": c["spectra.peaks_found"],
            "spectra.map_rows_per_peak": ratio(c["spectra.map_rows"],
                                               c["spectra.peaks_found"]),
            "spectra.synthesize_spectrum.self_s": self_s("spectra.synthesize_spectrum"),
            "spectra.synthesize_field_scan.self_s": self_s("spectra.synthesize_field_scan"),
            "spectra.synth_points": c["spectra.synth_points"],
            "spectra.io.write_s": total_s(*(f"spectra.{n}" for n in SPECTRA_WRITERS)),
            "spectra.io.read_s": total_s(*(f"spectra.{n}" for n in SPECTRA_READERS)),
            "spectra.io.bytes_written": c["spectra.io.bytes_written"],
            "spectra.io.bytes_read": c["spectra.io.bytes_read"],
            "scattering.loss_rate_proxy.calls": calls("scattering.loss_rate_proxy"),
            "scattering.loss_rate_proxy.elements": c["scattering.loss_rate_proxy.elements"],
            "scattering.self_s": layer_self_s("scattering"),
            "atomdata.molecular_energy.calls": calls("atomdata.molecular_energy"),
            "atomdata.molecular_energy.self_s": self_s("atomdata.molecular_energy"),
            "lightshift.calls": int(np.count_nonzero((span_layer == "lightshift")
                                                     & (parent_layer != "lightshift"))),
            "lightshift.self_s": layer_self_s("lightshift"),
            "specfun.wigner.calls": calls("specfun.wigner_3j", "specfun.wigner_6j"),
            "specfun.wigner.self_s": self_s("specfun.wigner_3j", "specfun.wigner_6j"),
            "specfun.bessel_j.calls": calls("specfun.bessel_j"),
            "specfun.bessel_j.self_s": self_s("specfun.bessel_j"),
            "keyvalue.load_keyvalue.calls": calls("keyvalue.load_keyvalue"),
            "keyvalue.load_keyvalue.self_s": self_s("keyvalue.load_keyvalue"),
            "cli.self_s": layer_self_s("cli"),
        }
        for verb in verbs:
            m[f"cli.{verb}.s"] = total_s(f"cli.{verb}")
        return m
