import json

import pytest

import gradecho.sweep
from gradecho.metrics import compute_echo_metrics
from gradecho.model import MediumParams
from gradecho.solver import integrate
from gradecho.scenarios import builtin_sweep
from gradecho.sweep import (PointResult, SweepSpec, _longest_first,
                            get_scenario_field, run_sweep, set_scenario_field)

from .conftest import small_scenario


def _spec(tmp_path=None, workers=1, xis=(20.0, 50.0)):
    return SweepSpec(
        base=small_scenario(),
        axes=(("medium.xi", xis),),
        workers=workers,
        checkpoint=None if tmp_path is None else str(tmp_path / "ckpt.jsonl"),
        efficiency_cut=0.8,
        detect_after=0.8,
    )


def test_field_path_resolution():
    s = small_scenario()
    assert get_scenario_field(s, "medium.xi") == 50.0
    s2 = set_scenario_field(s, "medium.xi", 80.0)
    assert s2.medium.xi == 80.0
    assert s.medium.xi == 50.0  # original untouched
    with pytest.raises(KeyError):
        get_scenario_field(s, "medium.bogus")


def test_spec_rejects_bad_axis_before_running():
    with pytest.raises(KeyError):
        SweepSpec(base=small_scenario(), axes=(("probe.nope", (1.0,)),))
    with pytest.raises(ValueError):
        SweepSpec(base=small_scenario(), axes=())


def test_integer_axis_keeps_ints_and_points_round_trip():
    from gradecho.config import parse_scenario, serialize_scenario

    spec = SweepSpec(base=small_scenario(), axes=(("grid.nz", (64, 128.0)),))
    assert spec.axes == (("grid.nz", (64, 128)),)
    assert all(type(v) is int for v in spec.axes[0][1])
    result = run_sweep(spec)
    assert [r.error for r in result.rows] == [None, None]
    for i in range(spec.size()):
        _, s = spec.point(i)
        assert parse_scenario(serialize_scenario(s)) == s
    with pytest.raises(ValueError, match="integers"):
        SweepSpec(base=small_scenario(), axes=(("grid.nz", (64.5,)),))


def test_singleton_grid_matches_direct_call():
    spec = _spec(xis=(50.0,))
    result = run_sweep(spec)
    assert len(result.rows) == 1
    row = result.rows[0]
    rec = integrate(small_scenario())
    m = compute_echo_metrics(rec, after=0.8, t_cut=0.8)
    assert row.error is None
    assert row.metrics["efficiency_R"] == pytest.approx(m.efficiency_R, rel=1e-12)
    assert row.metrics["echo_peak_time"] == pytest.approx(m.echo_peak_time, rel=1e-12)


def test_worker_count_does_not_change_results(tmp_path):
    r1 = run_sweep(_spec())
    r2 = run_sweep(SweepSpec(base=small_scenario(), axes=(("medium.xi", (20.0, 50.0)),),
                             workers=2, efficiency_cut=0.8, detect_after=0.8))
    csv1 = tmp_path / "a.csv"
    csv2 = tmp_path / "b.csv"
    r1.to_csv(csv1)
    r2.to_csv(csv2)
    assert csv1.read_bytes() == csv2.read_bytes()


def test_resume_is_bit_identical(tmp_path):
    full_dir = tmp_path / "full"
    full_dir.mkdir()
    full = run_sweep(_spec(full_dir))

    # simulate an interrupted sweep: checkpoint holds the header and only
    # the first point
    part_dir = tmp_path / "part"
    part_dir.mkdir()
    spec = _spec(part_dir)
    ckpt = part_dir / "ckpt.jsonl"
    lines = (full_dir / "ckpt.jsonl").read_text(encoding="utf-8").splitlines()
    assert json.loads(lines[1])["index"] == 0
    ckpt.write_text("\n".join(lines[:2]) + "\n", encoding="utf-8")

    resumed = run_sweep(spec)
    a = tmp_path / "full.csv"
    b = tmp_path / "resumed.csv"
    full.to_csv(a)
    resumed.to_csv(b)
    assert a.read_bytes() == b.read_bytes()


def test_failed_point_recorded_not_fatal():
    # xi < 0 fails MediumParams construction inside the point
    spec = SweepSpec(base=small_scenario(), axes=(("medium.xi", (50.0, -5.0)),),
                     efficiency_cut=0.8, detect_after=0.8)
    result = run_sweep(spec)
    assert result.rows[0].error is None
    assert result.rows[1].error is not None
    assert result.rows[1].metrics is None


def test_no_flip_point_marked_no_echo(monkeypatch):
    # nothing to score, so the point runs no integrate
    def no_integrate(*args, **kwargs):
        raise AssertionError("integrate called")

    monkeypatch.setattr(gradecho.sweep, "integrate", no_integrate)
    spec = SweepSpec(base=small_scenario(flip=False),
                     axes=(("medium.xi", (50.0,)),))
    row = run_sweep(spec).rows[0]
    assert row == PointResult(0, {"medium.xi": 50.0}, None,
                              {"no_echo": True, "dispersion": ""},
                              error="schedule has no flip; echo metrics undefined")


def test_flipped_no_echo_point_is_a_result_not_an_error():
    spec = SweepSpec(base=small_scenario(medium=MediumParams(xi=0.0)),
                     axes=(("medium.xi", (0.0,)),))
    row = run_sweep(spec).rows[0]
    assert row.flags == {"no_echo": True, "dispersion": ""}
    assert row.metrics is None
    assert row.error is None


def test_point_result_json_roundtrip():
    r = PointResult(index=3, values={"medium.xi": 50.0},
                    metrics={"efficiency_R": 0.5}, flags={"dispersion": False},
                    error=None)
    assert PointResult.from_json(r.to_json()) == r


def test_dispersion_flag_reference_points():
    # distortion marker on the linear-gradient storage protocol: broadened
    # echo at (xi, zeta) = (4000, 500), clean at (2000, 4000)
    from gradecho.sweep import dispersion_flag

    spec = builtin_sweep("fig4a-coarse")
    flags = {}
    for xi, zeta in ((4000.0, 500.0), (2000.0, 4000.0)):
        scenario = set_scenario_field(
            set_scenario_field(spec.base, "medium.xi", xi), "profile.zeta", zeta)
        rec = integrate(scenario, check=False)
        m = compute_echo_metrics(rec, after=0.075, t_cut=0.065)
        flags[(xi, zeta)] = dispersion_flag(m)
    assert flags[(4000.0, 500.0)] is True
    assert flags[(2000.0, 4000.0)] is False


def test_checkpoint_of_another_spec_is_refused(tmp_path, monkeypatch):
    run_sweep(_spec(tmp_path, xis=(20.0,)))
    with pytest.raises(ValueError, match="another sweep spec"):
        run_sweep(_spec(tmp_path, xis=(50.0,)))
    # a checkpoint without a header (older format) is refused too
    ckpt = tmp_path / "ckpt.jsonl"
    ckpt.write_text(ckpt.read_text(encoding="utf-8").splitlines()[1] + "\n",
                    encoding="utf-8")
    with pytest.raises(ValueError, match="another sweep spec"):
        run_sweep(_spec(tmp_path, xis=(20.0,)))
    # so is one of the same spec written by another version, here the last
    # one: its rows may differ and must not be mixed (0.5.1 rows of ramped
    # scenarios moved in the last digits)
    ckpt.unlink()
    monkeypatch.setattr(gradecho.sweep, "__version__", "0.5.0")
    run_sweep(_spec(tmp_path, xis=(20.0,)))
    monkeypatch.undo()
    with pytest.raises(ValueError, match="gradecho version"):
        run_sweep(_spec(tmp_path, xis=(20.0,)))


def test_each_finished_point_is_on_disk_before_the_next_starts(tmp_path, monkeypatch):
    # a kill between two points must lose neither: every earlier point is
    # readable through a separate open when the next one starts
    ckpt = tmp_path / "ckpt.jsonl"
    finished = []
    run_point = gradecho.sweep._run_point

    def checked(args):
        lines = ckpt.read_text(encoding="utf-8").splitlines() if finished else []
        assert [json.loads(line)["index"] for line in lines[1:]] == finished
        r = run_point(args)
        finished.append(r.index)
        return r

    monkeypatch.setattr(gradecho.sweep, "_run_point", checked)
    run_sweep(_spec(tmp_path, xis=(20.0, 35.0, 50.0)))
    assert finished == [0, 1, 2]
    assert len(ckpt.read_text(encoding="utf-8").splitlines()) == 4


def test_pool_starts_no_more_workers_than_points_left(tmp_path, monkeypatch):
    # a pool starts all max_workers processes up front, so the worker count
    # is capped by the points to run, and one point left runs in process
    # with no pool; the fake pool maps in process
    import concurrent.futures

    started = []

    class InProcessPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    spec = _spec(tmp_path, workers=10_000, xis=(20.0, 35.0, 50.0))
    full = run_sweep(spec)
    ckpt = tmp_path / "ckpt.jsonl"
    lines = ckpt.read_text(encoding="utf-8").splitlines()
    ckpt.write_text("\n".join(lines[:3]) + "\n", encoding="utf-8")  # one point left
    assert run_sweep(spec).rows == full.rows
    assert started == [3]


def test_cut_off_last_line_is_dropped_and_recomputed(tmp_path):
    full = run_sweep(_spec(tmp_path))
    ckpt = tmp_path / "ckpt.jsonl"
    data = ckpt.read_bytes()
    ckpt.write_bytes(data[:-20])  # killed while writing the last point
    resumed = run_sweep(_spec(tmp_path))
    assert resumed.rows == full.rows
    assert ckpt.read_bytes() == data


def test_corrupt_middle_line_fails(tmp_path):
    run_sweep(_spec(tmp_path))
    ckpt = tmp_path / "ckpt.jsonl"
    lines = ckpt.read_text(encoding="utf-8").splitlines()
    lines[1] = lines[1][:-20]
    ckpt.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 2 is corrupt"):
        run_sweep(_spec(tmp_path))


def test_longest_points_go_first():
    # fig4a-coarse: the five zeta = 4000 points have the most steps, ties
    # keep index order
    spec = builtin_sweep("fig4a-coarse")
    order = _longest_first(spec, range(spec.size()))
    assert sorted(order) == list(range(spec.size()))
    assert order[:5] == [4, 9, 14, 19, 24]
    assert order[5:10] == [3, 8, 13, 18, 23]


def test_pool_runs_longest_first_and_keeps_error_rows(tmp_path):
    # xi < 0 does not build (cost 0, last); xi = 50 has more steps than 20
    spec = _spec(tmp_path, workers=2, xis=(20.0, -5.0, 50.0))
    result = run_sweep(spec)
    lines = (tmp_path / "ckpt.jsonl").read_text(encoding="utf-8").splitlines()
    assert [json.loads(line)["index"] for line in lines[1:]] == [2, 0, 1]
    assert [r.index for r in result.rows] == [0, 1, 2]
    assert result.rows[1].error is not None and result.rows[1].metrics is None
    serial = run_sweep(_spec(xis=(20.0, -5.0, 50.0)))
    assert result.rows == serial.rows
