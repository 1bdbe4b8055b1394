"""Run one dissipwave CLI invocation the way `python -m dissipwave` does,
and record when its phases start and end.

Usage:
    python3 launch.py TIMES_JSON TRACE -- <dissipwave arguments>
    python3 launch.py --facts

TIMES_JSON receives, as time.monotonic() readings (comparable across
processes on one machine): the start and end of the `dissipwave.cli`
import, the entry and exit of cli.main, and the first entry and last exit
of the presets run call (run_linear, run_semilinear or run_bands).  The
run call wrapper is the only code added to an untraced run.

With TRACE = 1 the public functions of every layer are wrapped as well.
Each call becomes a span (parent span, name, start, end, bytes) kept in
memory and written to TIMES_JSON + ".spans" as binary columns (see
SPAN_FIELDS) when cli.main returns; bytes is the input plus output array
size of an FFT call and 0 for every other span.  The wrappers are
installed on every module attribute that binds the function, so
`from .grid import inverse_transform` in solver is traced as well as calls
that go through the grid module.  Nothing under src/ is edited.

--facts imports the package (which also compiles its bytecode) and prints
the interpreter, library and numpy build facts as one JSON line.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from pathlib import Path

from layers import SPAN_FIELDS

SRC = Path(__file__).resolve().parent.parent / "src"

RUN_CALLS = ("run_linear", "run_semilinear", "run_bands")

FFT_NAMES = ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2",
             "irfft2", "fftn", "ifftn", "rfftn", "irfftn")

# Functions wrapped in a traced run, by module: the ones layers.py turns
# into metrics.  Span names are "<module>.<function>".
TRACED = {
    "grid": ("inverse_transform", "write_snapshot"),
    "symbols": ("green_hat", "green_hat_dt", "green_band",
                "build_symbol_table"),
    "solver": ("step_semilinear", "apply_nonlinearity", "linear_step",
               "linear_solution"),
    "analysis": ("lp_norm", "weighted_profile", "e0_norm", "fit_decay_rate",
                 "fit_exponential_rate", "write_series_csv",
                 "write_report_csv"),
    "oracle": ("heat_reference",),
    "presets": RUN_CALLS,
}


def _import_cli():
    if not (SRC / "dissipwave" / "__init__.py").is_file():
        raise SystemExit(f"launch: no dissipwave package under {SRC}")
    sys.path.insert(0, str(SRC))
    import dissipwave.cli as cli
    if Path(cli.__file__).resolve().parent != SRC / "dissipwave":
        raise SystemExit(f"launch: imported dissipwave from {cli.__file__}, "
                         f"not from {SRC}")
    return cli


def _rebind(original, replacement) -> None:
    """Point every dissipwave module attribute bound to original at
    replacement."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "dissipwave"
                                  or name.startswith("dissipwave.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


class RunCallClock:
    """First entry and last exit of the presets run call."""

    def __init__(self) -> None:
        self.enter: float | None = None
        self.exit: float | None = None

    def wrap(self, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if self.enter is None:
                self.enter = time.monotonic()
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit = time.monotonic()
        return timed


class Tracer:
    """In-memory span recorder: one typed column per span field."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.columns = {name: array(code) for name, code in SPAN_FIELDS}
        self.stack: list[int] = []

    def wrap(self, name: str, fn, count_bytes: bool = False):
        name_id = len(self.names)
        self.names.append(name)
        parent, names, start, end, nbytes = self.columns.values()
        stack, clock = self.stack, time.monotonic

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            parent.append(stack[-1] if stack else -1)
            names.append(name_id)
            end.append(0.0)
            nbytes.append(0)
            stack.append(i)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if count_bytes:
                nbytes[i] = getattr(args[0], "nbytes", 0) + out.nbytes
            return out
        return traced

    def dump(self, path: str) -> None:
        with open(path, "wb") as fh:
            for column in self.columns.values():
                column.tofile(fh)

    def install(self) -> None:
        import numpy as np
        pkg = sys.modules["dissipwave"]
        for fft_name in FFT_NAMES:
            fn = getattr(np.fft, fft_name)
            setattr(np.fft, fft_name,
                    self.wrap(f"numpy.fft.{fft_name}", fn, count_bytes=True))
        for mod_name, attrs in TRACED.items():
            module = getattr(pkg, mod_name)
            for attr in attrs:
                fn = getattr(module, attr)
                _rebind(fn, self.wrap(f"{mod_name}.{attr}", fn))
        ledger = pkg.analysis.EnergyLedger
        ledger.record = self.wrap("analysis.EnergyLedger.record",
                                  ledger.record)


def facts() -> dict:
    import platform

    import numpy as np
    import scipy
    _import_cli()
    config = np.show_config(mode="dicts")
    deps = config.get("Build Dependencies", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": {k: v for k, v in deps.get("blas", {}).items()
                       if k in ("name", "version", "openblas configuration")},
        "numpy_fft": np.fft._pocketfft.__name__,
        "numpy_simd": config.get("SIMD Extensions", {}),
    }


def main(argv: list[str]) -> int:
    if argv == ["--facts"]:
        print(json.dumps(facts()))
        return 0
    if len(argv) < 3 or argv[2] != "--" or argv[1] not in ("0", "1"):
        raise SystemExit("usage: launch.py TIMES_JSON 0|1 -- ARGS...")
    times_path, trace, cli_args = argv[0], argv[1] == "1", argv[3:]

    record = {"import_start": time.monotonic()}
    cli = _import_cli()
    record["import_end"] = time.monotonic()
    presets = sys.modules["dissipwave.presets"]
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    clock = RunCallClock()
    for name in RUN_CALLS:
        fn = getattr(presets, name)
        _rebind(fn, clock.wrap(fn))

    record["main_enter"] = time.monotonic()
    try:
        code = cli.main(cli_args)
    finally:
        record["main_exit"] = time.monotonic()
        record["run_enter"] = clock.enter
        record["run_exit"] = clock.exit
        if tracer is not None:
            record["names"] = tracer.names
            record["span_count"] = len(tracer.columns["start"])
            tracer.dump(times_path + ".spans")
        with open(times_path, "w") as fh:
            json.dump(record, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
