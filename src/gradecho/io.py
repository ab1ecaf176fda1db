"""File emission: CSV tables, metrics JSON, run and sweep manifests.

Numeric CSV columns use round-trip precision so identical configs yield
bit-identical files.
"""
from __future__ import annotations

import json
import time

import numpy as np

from . import __version__
from .solver import FieldRecord

__all__ = ["write_csv", "write_timeseries_csv", "write_metrics_json",
           "RunManifestWriter"]

_CSV_HEADER = "t,re_probe_in,im_probe_in,re_probe_out,im_probe_out,probe_out_intensity"


def write_csv(path, header: str, columns) -> None:
    """Write equal-length real columns under a header line, every value in
    ``%.17g`` (the same text as ``format(v, ".17g")``), in one write."""
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    body = "".join([row % tuple(r) for r in np.column_stack(columns).tolist()])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n" + body)


def write_timeseries_csv(record: FieldRecord, path) -> None:
    write_csv(path, _CSV_HEADER, [
        record.times,
        record.probe_in.real, record.probe_in.imag,
        record.probe_out.real, record.probe_out.imag,
        np.abs(record.probe_out) ** 2,
    ])


def write_metrics_json(metrics_dict: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(metrics_dict, fh, indent=2, sort_keys=True)
        fh.write("\n")


class RunManifestWriter:
    """Collects the files a command emits and writes one manifest referencing
    exactly those files.

    The keyword arguments of the constructor and of ``write`` are the
    command's own fields; every manifest also holds the tool, its version,
    the outputs and the wall time since construction.
    """

    def __init__(self, **fields):
        self._t0 = time.monotonic()
        self.payload = {"tool": "gradecho", "version": __version__, **fields,
                        "outputs": []}

    def add_output(self, path) -> None:
        self.payload["outputs"].append(str(path))

    def write(self, path, **fields) -> None:
        self.payload.update(fields, wall_time_s=time.monotonic() - self._t0)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
