"""Study driver, slope fitting, CSV format, and CLI tests."""

import re
import subprocess
import sys
from dataclasses import astuple

import numpy as np
import pytest

from dpglab.cli import main
from dpglab.study import (CSV_HEADER, ConfigError, ConvergenceRecord,
                          StudyConfig, fit_slope, run_study)


def synthetic_records(dofs, errs):
    return [ConvergenceRecord(level=i, dofs=d, h_max=1.0 / d, err_u=e)
            for i, (d, e) in enumerate(zip(dofs, errs))]


def test_fit_slope_exact_power_law():
    recs = synthetic_records([10, 100, 1000], [10 ** -0.5, 100 ** -0.5,
                                               1000 ** -0.5])
    assert fit_slope(recs, "err_u", window=3) == pytest.approx(0.5, abs=1e-12)


def test_fit_slope_constant_errors():
    recs = synthetic_records([10, 100, 1000], [0.37, 0.37, 0.37])
    assert fit_slope(recs, "err_u", window=3) == pytest.approx(0.0, abs=1e-12)


def test_fit_slope_halving_errors_quadrupling_dofs():
    recs = synthetic_records([16, 64, 256], [1.0, 0.5, 0.25])
    assert fit_slope(recs, "err_u", window=3) == pytest.approx(0.5, rel=1e-12)


def test_fit_slope_excludes_nonpositive_with_warning():
    # zero, NaN and infinity are excluded alike, each with its own warning
    recs = synthetic_records([10, 100, 1000, 10000, 100000, 1000000],
                             [1.0, 0.0, 0.01, float("nan"), 0.0001,
                              float("inf")])
    with pytest.warns(UserWarning, match="not positive") as caught:
        slope = fit_slope(recs, "err_u", window=6)
    assert [str(w.message).split(":")[0] for w in caught] == [
        "excluding level 1", "excluding level 3", "excluding level 5"]
    assert slope == pytest.approx(1.0, rel=1e-6)


def test_fit_slope_needs_two_points():
    recs = synthetic_records([10, 100], [1.0, 0.0])
    with pytest.raises(ValueError), pytest.warns(UserWarning):
        fit_slope(recs, "err_u", window=2)
    with pytest.raises(ValueError):
        fit_slope(recs, "err_u", window=1)


def test_fit_slope_refuses_a_single_dof_count():
    # no line fits through one abscissa: polyfit returns a meaningless
    # slope with only a RankWarning
    recs = synthetic_records([10, 10], [1.0, 0.5])
    with pytest.raises(ValueError, match="distinct dof counts"):
        fit_slope(recs, "err_u", window=2)
    # the excluded record does not count towards the two
    recs = synthetic_records([10, 10, 100], [1.0, 0.5, 0.0])
    with pytest.raises(ValueError, match="distinct dof counts"), \
            pytest.warns(UserWarning, match="not positive"):
        fit_slope(recs, "err_u", window=3)


def test_fit_slope_window_is_an_integer_of_at_least_two():
    recs = synthetic_records([10, 100, 1000], [1.0, 0.1, 0.01])
    for window in (2.5, 3.0, "3", None, True, 1, 0, -3):
        with pytest.raises(ValueError, match=(
                rf"^slope-fit window must be an integer >= 2, not "
                rf"{re.escape(repr(window))}$")):
            fit_slope(recs, "err_u", window=window)
    assert fit_slope(recs, "err_u", window=np.int64(3)) == pytest.approx(
        1.0, rel=1e-12)


def test_eoc_is_none_without_a_positive_error_or_new_dofs():
    from dpglab.study import _attach_eocs

    # equal dofs, then a zero error, then a zero previous error, then a
    # tenfold drop over ten times the dofs
    records = synthetic_records([10, 10, 100, 1000, 10000],
                                [1.0, 0.5, 0.0, 0.1, 0.01])
    _attach_eocs(records)
    assert [r.eoc_u for r in records[:4]] == [None] * 4
    assert records[4].eoc_u == pytest.approx(1.0, rel=1e-12)


def test_eoc_definition():
    config = StudyConfig(problem="square", p=0, trial="augmented",
                         mode="uniform", levels=3)
    records = run_study(config)
    for prev, rec in zip(records, records[1:]):
        expected = -np.log(rec.err_u / prev.err_u) / \
            np.log(rec.dofs / prev.dofs)
        assert rec.eoc_u == pytest.approx(expected, rel=1e-12)
    assert records[0].eoc_u is None


def test_csv_round_trip_bitwise(tmp_path):
    config = StudyConfig(problem="square", p=0, trial="standard",
                         mode="uniform", levels=3, postprocess=True,
                         out=str(tmp_path / "a.csv"))
    records = run_study(config)
    header, *rows = (tmp_path / "a.csv").read_text().splitlines()
    assert header == CSV_HEADER
    assert len(rows) == len(records) == 3
    # 17 significant digits give every float back exactly; None is empty
    for row, rec in zip(rows, records):
        cells = row.split(",")
        assert len(cells) == len(astuple(rec))
        for cell, value in zip(cells, astuple(rec)):
            assert (cell == "" if value is None else float(cell) == value)


def test_csv_uses_lf_and_empty_cells(tmp_path):
    config = StudyConfig(problem="square", p=0, trial="standard",
                         mode="uniform", levels=2,
                         out=str(tmp_path / "c.csv"))
    run_study(config)
    raw = (tmp_path / "c.csv").read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().splitlines()
    # no postprocessing: err_u_post column is empty, first row has no EOCs
    assert lines[1].split(",")[5] == ""
    assert lines[1].split(",")[7] == ""


def test_run_study_deterministic(tmp_path):
    for name in ("r1.csv", "r2.csv"):
        run_study(StudyConfig(problem="lshape", p=0, trial="standard",
                              mode="adaptive", max_dofs=500,
                              postprocess=True, out=str(tmp_path / name)))
    assert (tmp_path / "r1.csv").read_bytes() == \
        (tmp_path / "r2.csv").read_bytes()


def test_postprocess_flag_is_refused_by_the_loop_gate():
    # StudyConfig.validate keeps no rule of its own for postprocess: the
    # ConfigError is adapt._check_loop's ValueError, translated
    with pytest.raises(ConfigError, match="^postprocess must be a bool, "
                                          "not 'no'$") as info:
        StudyConfig(levels=3, postprocess="no").validate()
    assert isinstance(info.value.__cause__, ValueError)


def test_postprocess_takes_a_numpy_bool():
    # the flag rule is TrialSpace's for augmented too: a numpy bool, as a
    # flag read from an array would be, selects the same as the bool
    from dpglab.adapt import adaptive_loop
    from dpglab.dpg import TrialSpace
    from dpglab.problems import lshape_singular

    for flag in (np.True_, np.False_):
        StudyConfig(levels=1, postprocess=flag).validate()
        step, = adaptive_loop(lshape_singular(), TrialSpace(0), max_steps=1,
                              postprocess=flag).steps
        assert (step.report.err_u_post is not None) == bool(flag)


def test_config_validation_errors():
    bad = [
        StudyConfig(problem="disc"),
        StudyConfig(p=7),
        StudyConfig(trial="bogus"),
        StudyConfig(mode="bogus"),
        StudyConfig(theta=0.0),
        StudyConfig(mode="uniform"),            # needs levels or max_dofs
        StudyConfig(mode="adaptive"),           # needs max_dofs or levels
        StudyConfig(levels=0),
        StudyConfig(mode="adaptive", levels=0),
        StudyConfig(mode="adaptive", levels=-3),
        StudyConfig(levels=3, quad_bump=-1),
        StudyConfig(levels=3, solver_tol=0.0),
        StudyConfig(levels=3, solver_tol=float("nan")),
        StudyConfig(levels=3, solver_tol=float("inf")),
        StudyConfig(levels=3, solver_tol=1.0),
        # error quadrature exactness 2(p+3)+4+bump beyond 20
        StudyConfig(p=3, levels=3, quad_bump=5),
        # integer fields: no bools, no fractions, no strings
        StudyConfig(p=True, levels=3),
        StudyConfig(p=1.5, levels=3),
        StudyConfig(p="1", levels=3),
        StudyConfig(levels=2.5),
        StudyConfig(levels=True),
        StudyConfig(mode="adaptive", max_dofs=1e4),
        StudyConfig(mode="adaptive", max_dofs=False),
        StudyConfig(levels=3, quad_bump=0.5),
        StudyConfig(levels=3, quad_bump=False),
        # real fields: no strings, no bools; postprocess is a bool
        StudyConfig(levels=3, theta="0.5"),
        StudyConfig(levels=3, theta=True),
        StudyConfig(levels=3, solver_tol="1e-10"),
        StudyConfig(levels=3, solver_tol=False),
        StudyConfig(levels=3, postprocess="no"),
        StudyConfig(levels=3, postprocess=1),
    ]
    for config in bad:
        with pytest.raises(ConfigError):
            config.validate()
    StudyConfig(levels=3).validate()
    StudyConfig(p=3, levels=3, quad_bump=4).validate()
    StudyConfig(p=np.int64(1), levels=np.int32(2), max_dofs=np.int64(10),
                quad_bump=np.int64(0)).validate()
    StudyConfig(levels=3, theta=np.float64(0.5), solver_tol=1e-8,
                postprocess=True).validate()


def test_cli_run_and_exit_codes(tmp_path, capsys):
    out = tmp_path / "cli.csv"
    code = main(["run", "--problem", "square", "--p", "0", "--trial",
                 "augmented", "--mode", "uniform", "--levels", "3",
                 "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr()
    assert "level" in captured.out and str(out) in captured.out
    assert out.exists()

    code = main(["run", "--problem", "square", "--p", "9", "--levels", "2"])
    assert code == 2
    assert "error" in capsys.readouterr().err

    code = main(["run", "--problem", "square", "--p", "0", "--levels", "1",
                 "--quad-bump", "20"])
    assert code == 2
    assert "quadrature" in capsys.readouterr().err

    for levels in ("0", "-3"):
        code = main(["run", "--problem", "lshape", "--mode", "adaptive",
                     "--levels", levels])
        assert code == 2
        assert (f"max_steps / levels must be an integer >= 1, not {levels}"
                in capsys.readouterr().err)


def test_cli_solver_failure_exit_code(monkeypatch, capsys):
    from dpglab import cli as cli_mod
    from dpglab.dpg import SolverError

    def boom(config):
        raise SolverError("unreachable residual", residual=1.0)

    monkeypatch.setattr(cli_mod, "run_study", boom)
    code = main(["run", "--problem", "square", "--levels", "2"])
    assert code == 3
    assert "solver failure" in capsys.readouterr().err


def test_cli_entry_point_subprocess(tmp_path):
    out = tmp_path / "sub.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "dpglab.cli", "run", "--problem", "square",
         "--p", "0", "--levels", "2", "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
    header = out.read_text().splitlines()[0]
    assert header == CSV_HEADER


def test_unwritable_out_is_refused_before_any_solve(tmp_path, monkeypatch,
                                                    capsys):
    # an --out in a missing directory, or naming a directory, used to
    # fail in write_csv after the whole study had run
    import dpglab.adapt as adapt_mod

    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran before the out path was checked")

    monkeypatch.setattr(adapt_mod, "assemble_solve", no_solve)
    missing = tmp_path / "missing" / "x.csv"
    for out in (str(missing), str(tmp_path), f"{tmp_path}/x.csv/", ""):
        with pytest.raises(ConfigError, match="not a file path in an "
                                              "existing directory"):
            run_study(StudyConfig(levels=2, out=out))
    code = main(["run", "--problem", "square", "--levels", "1",
                 "--out", str(missing)])
    assert code == 2
    assert str(missing) in capsys.readouterr().err
    assert not missing.parent.exists()


@pytest.mark.parametrize("mode", ["uniform", "adaptive"])
def test_partial_table_flushed_on_failure(tmp_path, monkeypatch, mode):
    # the CSV holds the completed levels when a later solve blows up
    import dpglab.adapt as adapt_mod
    from dpglab.dpg import SolverError

    real = adapt_mod.assemble_solve
    calls = {"n": 0}

    def flaky(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] >= 3:
            raise SolverError("injected failure", residual=1.0)
        return real(*args, **kwargs)

    monkeypatch.setattr(adapt_mod, "assemble_solve", flaky)
    out = tmp_path / "partial.csv"
    config = StudyConfig(problem="square", p=0, trial="standard",
                         mode=mode, levels=5, out=str(out))
    with pytest.raises(SolverError):
        run_study(config)
    # the header and the two completed levels
    assert len(out.read_text().splitlines()) == 3


def test_csv_header_is_the_documented_format():
    # CSV_HEADER is derived from ConvergenceRecord; the README documents
    # the columns literally
    assert CSV_HEADER == ("level,dofs,h_max,err_u,err_sigma,err_u_post,eta,"
                          "eoc_u,eoc_sigma,eoc_post,eoc_eta")
