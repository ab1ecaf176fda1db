"""Parameter-grid execution over scenarios: embarrassingly parallel, with an
append-only checkpoint so an interrupted sweep resumes without recomputation.

The work unit is one grid point (one integrate + metrics pass).  Results are
keyed and merged by grid index, so tables are identical for any worker count
and for resumed runs.  A checkpoint is tied to its spec and package version
by a hash in its header line, so a resume never mixes rows of two specs.
"""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple, get_type_hints

import numpy as np

from . import __version__
from .config import config_hash
from .metrics import (AmbiguousPeakError, EchoMetrics, NoEchoError,
                      compute_echo_metrics)
from .model import Scenario, validate_scenario
from .solver import integrate, step_plan

__all__ = ["SweepSpec", "PointResult", "SweepResult", "run_sweep", "dispersion_flag",
           "set_scenario_field", "get_scenario_field"]

DISPERSION_BROADENING = 0.25  # echo fwhm > (1 + this) * input fwhm marks distortion


def get_scenario_field(scenario: Scenario, path: str):
    obj = scenario
    for part in path.split("."):
        if not hasattr(obj, part):
            raise KeyError(f"parameter path {path!r} does not resolve "
                           f"({part!r} missing on {type(obj).__name__})")
        obj = getattr(obj, part)
    return obj


def set_scenario_field(scenario: Scenario, path: str, value) -> Scenario:
    parts = path.split(".")
    get_scenario_field(scenario, path)  # raises on bad path

    def rebuild(obj, parts, value):
        if len(parts) == 1:
            return dataclasses.replace(obj, **{parts[0]: value})
        child = getattr(obj, parts[0])
        return dataclasses.replace(obj, **{parts[0]: rebuild(child, parts[1:], value)})

    return rebuild(scenario, parts, value)


def _axis_value(base: Scenario, path: str, value):
    """``value`` as a float, or as an int on a field declared int
    (``grid.nz``); raises KeyError for a bad path and ValueError for a
    non-integral value of an int field."""
    get_scenario_field(base, path)  # a spec error, naming the path, before any run
    *head, name = path.split(".")
    owner = get_scenario_field(base, ".".join(head)) if head else base
    if get_type_hints(type(owner))[name] is not int:
        return float(value)
    if not float(value).is_integer():
        raise ValueError(f"axis {path!r} takes integers, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class SweepSpec:
    """Grid definition over a base scenario.

    ``axes`` maps dotted scenario paths (e.g. "medium.xi", "profile.zeta") to
    value lists (floats, or ints on a field declared int, e.g. "grid.nz");
    the grid is their Cartesian product in axis order, indexed row-major.
    """

    base: Scenario
    axes: Tuple[Tuple[str, Tuple[float, ...]], ...]
    workers: int = 1
    checkpoint: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.axes:
            raise ValueError("axes must be nonempty")
        axes = tuple((str(p), tuple(_axis_value(self.base, str(p), v) for v in vals))
                     for p, vals in self.axes)
        object.__setattr__(self, "axes", axes)
        for p, vals in axes:
            if not vals:
                raise ValueError(f"axis {p!r} has no values")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")

    @property
    def shape(self) -> Tuple[int, ...]:
        return tuple(len(vals) for _, vals in self.axes)

    def size(self) -> int:
        return int(np.prod(self.shape))

    def coordinates(self, index: int) -> dict:
        """Axis path -> value at grid point ``index``, without building the
        point's scenario."""
        coords = np.unravel_index(index, self.shape)
        return {path: vals[c] for (path, vals), c in zip(self.axes, coords)}

    def point(self, index: int) -> tuple[dict, Scenario]:
        values = self.coordinates(index)
        s = self.base
        for path, v in values.items():
            s = set_scenario_field(s, path, v)
        return values, s


@dataclass(frozen=True)
class PointResult:
    index: int
    values: dict
    metrics: Optional[dict]
    flags: dict
    error: Optional[str] = None

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True)

    @staticmethod
    def from_json(line: str) -> "PointResult":
        """The point of a checkpoint line; a missing or extra key raises TypeError."""
        return PointResult(**json.loads(line))


@dataclass(frozen=True)
class SweepResult:
    spec_shape: Tuple[int, ...]
    axis_paths: Tuple[str, ...]
    rows: Tuple[PointResult, ...]

    def to_csv(self, path) -> None:
        cols = sorted({k for r in self.rows if r.metrics for k in r.metrics})
        flag_cols = next((sorted(r.flags) for r in self.rows if r.flags), [])
        header = (["index"] + list(self.axis_paths) + cols + flag_cols + ["error"])
        lines = [",".join(header)]
        for r in self.rows:
            rec = [str(r.index)]
            rec += [_fmt(r.values[p]) for p in self.axis_paths]
            rec += [_fmt(r.metrics[c]) if r.metrics and c in r.metrics else ""
                    for c in cols]
            rec += [str(r.flags.get(c, "")) for c in flag_cols]
            rec.append("" if r.error is None else r.error.replace(",", ";"))
            lines.append(",".join(rec))
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def dispersion_flag(metrics: EchoMetrics) -> bool:
    """Distortion marker: echo measurably broader than the stored pulse."""
    return bool(metrics.echo_fwhm > (1.0 + DISPERSION_BROADENING) * metrics.input_fwhm)


def _run_point(args) -> PointResult:
    spec, index = args
    values = spec.coordinates(index)
    try:
        _, scenario = spec.point(index)
        errors = [i.message for i in validate_scenario(scenario) if i.severity == "error"]
        if errors:
            return PointResult(index, values, None, {},
                               error=f"validation: {'; '.join(errors)}")
        flip = scenario.schedule.last_flip_time(scenario.grid.t_end)
        if flip is None:  # nothing to score: the record is not computed
            return PointResult(index, values, None, {"no_echo": True, "dispersion": ""},
                               error="no control flip before t_end; echo metrics undefined")
        m = compute_echo_metrics(integrate(scenario, check=False), flip, flip)
    except NoEchoError:
        return PointResult(index, values, None, {"no_echo": True, "dispersion": ""})
    except AmbiguousPeakError as exc:
        # deep-dispersion corner: the echo is multimodal
        return PointResult(index, values, exc.metrics,
                           {"no_echo": False, "dispersion": "ambiguous"})
    except (ValueError, RuntimeError) as exc:  # UndefinedMetricError is a ValueError
        return PointResult(index, values, None, {}, error=f"{type(exc).__name__}: {exc}")
    return PointResult(index, values, dataclasses.asdict(m),
                       {"no_echo": False, "dispersion": dispersion_flag(m)})


def _longest_first(spec: SweepSpec, indices) -> list[int]:
    """``indices`` by decreasing cost, total steps x (nz + 1) of the point's
    step plan, ties in the given order.  A point that does not build costs
    0: its error row takes no time."""
    def cost(index: int) -> int:
        try:
            _, scenario = spec.point(index)
            return sum(p.steps for p in step_plan(scenario)) * (scenario.grid.nz + 1)
        except (ValueError, RuntimeError):
            return 0

    return sorted(indices, key=lambda i: -cost(i))


def _spec_hash(spec: SweepSpec) -> str:
    """Identity of the rows a spec produces: base scenario, axes, version."""
    key = {"base": config_hash(spec.base), "axes": spec.axes, "version": __version__}
    return hashlib.sha256(json.dumps(key, sort_keys=True).encode("utf-8")).hexdigest()


class _Checkpoint:
    """Append-only JSON-lines file: a header line holding the spec hash, then
    one finished point per line, flushed and fsynced as it arrives."""

    def __init__(self, path: Optional[str], spec_hash: str):
        self.path = Path(path) if path else None
        self.header = json.dumps({"gradecho_checkpoint": spec_hash})
        self._fh = None

    def load(self) -> dict[int, PointResult]:
        """Finished points of a matching checkpoint.

        A last line without its newline is a write cut off by a kill: it is
        truncated away and that point is recomputed.  A header for another
        spec or version, or a corrupt complete line, raises ValueError.
        """
        done: dict[int, PointResult] = {}
        if not (self.path and self.path.exists()):
            return done
        data = self.path.read_bytes()
        keep = data.rfind(b"\n") + 1
        lines = data[:keep].decode("utf-8").splitlines()
        if lines and lines[0] != self.header:
            raise ValueError(f"checkpoint {self.path} was written for another sweep "
                             f"spec or gradecho version; remove it to start over")
        for n, line in enumerate(lines[1:], start=2):
            try:
                r = PointResult.from_json(line)
            except (ValueError, TypeError) as exc:
                raise ValueError(f"checkpoint {self.path} line {n} is corrupt: "
                                 f"{exc}") from None
            done[r.index] = r
        if keep < len(data):
            with open(self.path, "r+b") as fh:
                fh.truncate(keep)
        return done

    def append(self, r: PointResult) -> None:
        if self.path is None:
            return
        if self._fh is None:
            self._fh = open(self.path, "a", encoding="utf-8")
            if self._fh.tell() == 0:
                self._fh.write(self.header + "\n")
        self._fh.write(r.to_json() + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate every grid point; deterministic per point regardless of
    worker count or completion order.  Failed points carry their error
    string instead of poisoning the sweep.  One worker, or one point left,
    runs the points in index order, in process; a pool gets them longest
    first, so its workers do not end on the most expensive ones.  Each
    finished point reaches the checkpoint, fsynced, as it arrives, so the
    lines follow that order."""
    n = spec.size()
    ckpt = _Checkpoint(spec.checkpoint, _spec_hash(spec))
    done = ckpt.load()
    todo = [i for i in range(n) if i not in done]
    with contextlib.ExitStack() as stack:
        stack.callback(ckpt.close)
        mapper = map
        # the pool starts all its workers at once: no more than there are points
        workers = min(spec.workers, len(todo))
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor

            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
            mapper, todo = pool.map, _longest_first(spec, todo)
        for r in mapper(_run_point, [(spec, i) for i in todo]):
            done[r.index] = r
            ckpt.append(r)
    return SweepResult(spec_shape=spec.shape, axis_paths=tuple(p for p, _ in spec.axes),
                       rows=tuple(done[i] for i in range(n)))
