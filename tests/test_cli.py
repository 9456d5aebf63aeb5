import csv
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import qlasso
import qlasso.cli
import qlasso.experiment
import qlasso.verify
from qlasso import ExperimentConfig, Sparse, fit_rate, run_curve
from qlasso.cli import _COMMANDS, _SETTINGS, build_parser, main
from test_streams import PINNED


def _write_cfg(tmp_path, **kw):
    base = dict(
        n=30,
        s=5,
        norm=3.0,
        R=4.0,
        ensemble="gaussian",
        quantizer="uniform",
        delta=1.0,
        m_grid=[100, 200, 400],
        trials=2,
        seed=11,
        estimators=["glasso", "pbp"],
    )
    base.update(kw)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(base))
    return str(path)


def _library_cfg(**kw):
    """The ExperimentConfig that the defaults of `_write_cfg` describe."""
    base = dict(
        n=30, structure=Sparse(5), norm_target=3.0, R=4.0,
        ensemble="gaussian", quantizer="uniform", delta=1.0,
        m_grid=(100, 200, 400), trials=2, master_seed=11,
        estimators=("glasso", "pbp"),
    )
    base.update(kw)
    return ExperimentConfig(**base)


def _curve_rows(path):
    """An error-curve CSV's rows as dicts keyed by its header, comment lines skipped."""
    types = {"m": int, "mean_err": float, "std_err": float, "trials": int}
    with open(path, newline="") as fh:
        rows = csv.DictReader(line for line in fh if not line.startswith("#"))
        return [{key: types.get(key, str)(value) for key, value in row.items()} for row in rows]


def _data_rows(path):
    """Fields of a CLI table's rows after the seed comment and the column names."""
    return [line.split(",") for line in path.read_text().splitlines()[2:]]


def test_widths_table(capsys):
    rc = main(["widths", "--sparse", "100:25", "--lowrank", "100:5"])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "n_or_d,s_or_r,width"
    assert out[1] == "100,25,10.335"
    assert out[2] == "100,5,54.772"


def test_widths_requires_arguments(capsys):
    assert main(["widths"]) == 2


@pytest.mark.parametrize("argv", [
    ["widths", "--sparse", "100"],
    ["widths", "--sparse", "100:200"],
    ["widths", "--sparse", "100:25", "--lowrank", "5:x"],
    ["quantize-demo", "--step", "0"],
    ["quantize-demo", "--step", "-1"],
    ["quantize-demo", "--delta", "2", "--delta", "0"],
    ["quantize-demo", "--xmin", "1", "--xmax", "0"],
    ["run-uniform", "--jobs", "0"],
    ["compare", "--jobs", "-2"],
    ["quantize-demo", "--delta", "inf"],
])
def test_bad_arguments_exit_2_before_any_output(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("configuration error: ")


def test_quantize_demo(capsys):
    rc = main(["quantize-demo", "--delta", "2", "--xmin", "0", "--xmax", "1", "--step", "0.5"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "x,Q_delta_2"
    assert lines[1].startswith("0,1")
    assert lines[3].startswith("1,1")


def test_quantize_demo_ends_at_a_large_xmax(capsys):
    # 1e-12 is below half an ulp of 1e5: the table still ends at --xmax, one row per step
    assert main(["quantize-demo", "--delta", "2", "--xmin", "99999", "--xmax", "100000", "--step", "0.1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 12 and lines[1] == "99999,99999"
    assert lines[-2:] == ["99999.9,99999", "100000,100001"]


@pytest.mark.parametrize("xmin,xmax,step", [("-1e308", "1e308", "1"), ("0", "1e6", "1")])
def test_quantize_demo_rejects_a_grid_too_long_to_print(xmin, xmax, step, capsys):
    # rows are counted before any grid is built: an infinite count, or one above the cap, exits 2
    assert main(["quantize-demo", f"--xmin={xmin}", f"--xmax={xmax}", f"--step={step}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("configuration error: ")


def test_run_uniform_outputs(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    rc = main(["run-uniform", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 0
    for est in ("glasso", "pbp"):
        table = tmp_path / "out" / f"uniform_{est}.csv"
        svg = tmp_path / "out" / f"uniform_{est}.svg"
        assert table.exists() and svg.exists()
        assert svg.read_text().startswith("<svg")
    rows = _curve_rows(tmp_path / "out" / "uniform_glasso.csv")
    assert [r["m"] for r in rows] == [100, 200, 400]
    assert all(r["trials"] == 2 for r in rows)
    header = (tmp_path / "out" / "uniform_glasso.csv").read_text().splitlines()[0]
    assert header.startswith("# master_seed=11 config_hash=")
    rates = (tmp_path / "out" / "uniform_rates.csv").read_text().splitlines()
    assert rates[1] == "estimator,model,coefficient,loglog_slope,residual_rms"


def test_csv_roundtrip_lossless(tmp_path):
    cfg = _write_cfg(tmp_path, estimators=["glasso"])
    main(["run-uniform", "--config", cfg, "--out", str(tmp_path / "a")])
    rows = _curve_rows(tmp_path / "a" / "uniform_glasso.csv")
    curve = run_curve(_library_cfg(estimators=("glasso",)), "glasso")
    # 17 significant digits round-trips doubles exactly
    assert [r["mean_err"] for r in rows] == list(curve.mean_err)


def test_run_deterministic_across_invocations(tmp_path):
    cfg = _write_cfg(tmp_path, estimators=["glasso"])
    main(["run-uniform", "--config", cfg, "--out", str(tmp_path / "a")])
    main(["run-uniform", "--config", cfg, "--out", str(tmp_path / "b")])
    a = (tmp_path / "a" / "uniform_glasso.csv").read_text()
    b = (tmp_path / "b" / "uniform_glasso.csv").read_text()
    assert a == b


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _subprocess_env(**blas):
    """The environment with the package on the path, no BLAS thread variable but those given."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    return dict(env, PYTHONPATH=str(Path(qlasso.__file__).resolve().parents[1]), **blas)


def test_jobs_do_not_change_outputs(tmp_path):
    # With no BLAS thread variable set, BLAS would run a thread per core in
    # every process, and OpenBLAS rounds a Gaussian Gram matrix differently with
    # more threads. The CLI pins itself to one thread and its forked workers
    # keep that, so --jobs 1 and --jobs 2 write the same bytes, run to run.
    # n=100 runs 15 trials as blocks of 13 and 2, so two workers share eight tasks;
    # m=2700 draws each matrix in three Gaussian or four +-1 row panels. The one-bit run draws
    # Rademacher rows in workers that load numpy.random at their first draw, after the fork.
    for command, tag, channel in (("run-uniform", "uniform", {}),
                                  ("run-onebit", "onebit", dict(ensemble="rademacher", quantizer="one_bit"))):
        cfg = _write_cfg(tmp_path, n=100, s=10, m_grid=[150, 200, 300, 2700], trials=15, **channel)
        outs = []
        for jobs in ("1", "2", "2"):
            out = tmp_path / f"{tag}{len(outs)}"
            subprocess.run([sys.executable, "-m", "qlasso.cli", command, "--config", cfg,
                            "--out", str(out), "--jobs", jobs], env=_subprocess_env(), check=True, timeout=120,
                           capture_output=True)
            outs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert set(outs[0]) == {f"{tag}_{name}" for name in ("glasso.csv", "glasso.svg", "pbp.csv", "pbp.svg",
                                                             "rates.csv")}
        assert outs[0] == outs[1] == outs[2]


# A library caller's Gaussian curve at jobs=1 and jobs=2: the caller's calls of
# _solve_block during the jobs=2 run, and whether the two curves are bitwise equal.
_GAUSSIAN_JOBS_CODE = """if True:
    import numpy as np, qlasso.experiment as ex
    from qlasso import ExperimentConfig, Sparse, run_curve
    cfg = ExperimentConfig(n=100, structure=Sparse(10), norm_target=3.0, R=4.0, ensemble="gaussian",
                           quantizer="uniform", delta=1.0, m_grid=(150, 200, 300, 2700), trials=15,
                           master_seed=11)
    one = run_curve(cfg, "glasso", jobs=1)
    calls, orig = [], ex._solve_block
    ex._solve_block = lambda *task: calls.append(task[1]) or orig(*task)
    two = run_curve(cfg, "glasso", jobs=2)
    same = all(np.array_equal(getattr(one, f), getattr(two, f)) for f in ("errors", "iterations", "converged"))
    print(len(calls), same)
"""


def test_forked_workers_solve_every_block():
    # The workers solve every block while the caller waits, and the curves are bitwise
    # those of one process. The count is the caller's: a forked worker appends to its
    # own copy of the list.
    env = _subprocess_env(**dict.fromkeys(BLAS_VARS, "1"))
    out = subprocess.run([sys.executable, "-c", _GAUSSIAN_JOBS_CODE], env=env, check=True, timeout=120,
                         capture_output=True, text=True)
    assert out.stdout.split() == ["0", "True"]


def test_forked_workers_round_as_an_unpinned_caller():
    # A caller that leaves BLAS on two threads forks workers with two threads as
    # well, so each block rounds in a worker as it would in the caller.
    env = _subprocess_env(OPENBLAS_NUM_THREADS="2")
    out = subprocess.run([sys.executable, "-c", _GAUSSIAN_JOBS_CODE], env=env, check=True, timeout=120,
                         capture_output=True, text=True)
    assert out.stdout.split()[1] == "True"


def test_forking_caller_keeps_no_workspace_resident():
    # A jobs=2 curve at n=256 allocates a 2.5 MiB workspace in the caller (Gaussian rows; 2.25
    # MiB for +-1 rows, a 340 KiB float32 panel and its 680 KiB float64 widening beside the 1 MiB
    # Gram stack), but only the forked workers write it, each into its own copy: the caller's peak
    # resident memory rises by far less than 1 MiB (it rises by the workspace if the caller writes
    # it once). The peak is VmHWM, as ru_maxrss keeps that of the process that started this one.
    code = """if True:
        import sys
        from qlasso import ExperimentConfig, Sparse, run_curve
        def peak_kib():
            with open("/proc/self/status") as status:
                return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
        cfg = ExperimentConfig(n=256, structure=Sparse(10), norm_target=3.0, R=4.0, ensemble=sys.argv[1],
                               quantizer="uniform", delta=1.0, m_grid=(300, 400), trials=4, master_seed=5)
        before = peak_kib()
        run_curve(cfg, "glasso", jobs=2)
        print(peak_kib() - before)
    """
    env = _subprocess_env(**dict.fromkeys(BLAS_VARS, "1"))
    for ensemble in ("gaussian", "rademacher"):
        out = subprocess.run([sys.executable, "-c", code, ensemble], env=env, check=True, timeout=60,
                             capture_output=True, text=True)
        assert int(out.stdout) < 1024, ensemble  # KiB


# Two threads of one library caller each run three curves at n=100 at once: the
# errors they raise, then whether each curve is bitwise its config's curve run alone.
_THREADED_CURVES_CODE = """if True:
    import threading, numpy as np
    from qlasso import ExperimentConfig, Sparse, run_curve
    cfgs = [ExperimentConfig(n=100, structure=Sparse(10), norm_target=3.0, R=4.0, ensemble=ensemble,
                             quantizer=quantizer, delta=delta, m_grid=(150, 300, 2700), trials=15, master_seed=seed)
            for ensemble, quantizer, delta, seed in (("rademacher", "uniform", 1.0, 3), ("gaussian", "one_bit", None, 4))]
    alone = [run_curve(cfg, "glasso") for cfg in cfgs]
    curves, failures = ([], []), []
    def run(i):
        try:
            for _ in range(3):
                curves[i].append(run_curve(cfgs[i], "glasso"))
        except Exception as exc:
            failures.append(f"{type(exc).__name__}: {exc}")
    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    print(failures)
    print([all(np.array_equal(getattr(one, f), getattr(c, f)) for f in ("errors", "iterations", "converged"))
           for one, cs in zip(alone, curves) for c in cs])
"""


def test_concurrent_curves_in_threads_match_their_runs_alone():
    # each run_curve call allocates its own workspace, so two threads' curves never share one
    env = _subprocess_env(**dict.fromkeys(BLAS_VARS, "1"))
    out = subprocess.run([sys.executable, "-c", _THREADED_CURVES_CODE], env=env, check=True, timeout=120,
                         capture_output=True, text=True)
    assert out.stdout.splitlines() == ["[]", str([True] * 6)]


def test_pool_runs_from_a_script_without_main_guard(tmp_path):
    # forked workers do not run the calling script again, so it needs no __main__ guard
    script = tmp_path / "curve.py"
    script.write_text(
        "from qlasso import ExperimentConfig, Sparse, run_curve\n"
        "cfg = ExperimentConfig(n=30, structure=Sparse(5), norm_target=3.0, R=4.0, ensemble='gaussian',\n"
        "                       quantizer='uniform', delta=1.0, m_grid=(100, 200), trials=2, master_seed=3)\n"
        "print(run_curve(cfg, 'glasso', jobs=2).errors.shape)\n"
    )
    out = subprocess.run([sys.executable, str(script)], env=_subprocess_env(), check=True, timeout=60,
                         capture_output=True, text=True)
    assert out.stdout.split("\n")[0] == "(2, 2)"


# A library caller's curve at jobs=2 whose blocks run FAIL in a forked worker (which
# inherits the patched _solve_block): the caller prints the error run_curve raises,
# then "no child" if it has no child process left, not even a zombie.
_FAILING_WORKER_CODE = """if True:
    import os, qlasso.experiment as ex
    from qlasso import ExperimentConfig, Sparse, run_curve
    caller, solve = os.getpid(), ex._solve_block
    def failing(*task):
        if os.getpid() != caller:
            FAIL
        return solve(*task)
    ex._solve_block = failing
    cfg = ExperimentConfig(n=100, structure=Sparse(10), norm_target=3.0, R=4.0, ensemble="gaussian",
                           quantizer="uniform", delta=1.0, m_grid=(150, 200, 300, 2700), trials=15,
                           master_seed=11)
    try:
        run_curve(cfg, "glasso", jobs=2)
    except Exception as exc:
        print(f"{type(exc).__name__}: {exc}")
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        print("no child")
"""


def _run_failing_worker(fail):
    """stdout lines and stderr of _FAILING_WORKER_CODE with its blocks running `fail` in a worker."""
    env = _subprocess_env(**dict.fromkeys(BLAS_VARS, "1"))
    out = subprocess.run([sys.executable, "-c", _FAILING_WORKER_CODE.replace("FAIL", fail)], env=env, check=True,
                         timeout=60, capture_output=True, text=True)
    return out.stdout.splitlines(), out.stderr


def test_dying_worker_breaks_the_pool():
    # the caller raises BrokenProcessPool instead of waiting for the results, prints
    # no traceback from the pool's own thread, and leaves no zombie behind
    lines, err = _run_failing_worker("os._exit(3)")
    assert [line.split(":")[0] for line in lines] == ["BrokenProcessPool", "no child"]
    assert "InvalidStateError" not in err


def test_raising_worker_block_reaches_the_caller():
    # the error of a block raised in a worker is raised again by run_curve
    lines, err = _run_failing_worker("raise ValueError('block failed in a worker')")
    assert lines == ["ValueError: block failed in a worker", "no child"]
    assert "InvalidStateError" not in err


def test_failing_block_stops_the_run_at_once():
    # worker 0's first block raises while worker 1's blocks each sleep 20 s: the caller
    # kills worker 1 at once instead of waiting for its running blocks, as a process pool did
    fail = ("__import__('time').sleep(0 if task[1:3] == (150, range(13)) else 20); "
            "raise ValueError(f'block {task[1]} {task[2]} failed')")
    start = time.monotonic()
    lines, err = _run_failing_worker(fail)
    assert lines == ["ValueError: block 150 range(0, 13) failed", "no child"]
    assert time.monotonic() - start < 5


def test_pooled_caller_loads_no_pool_module():
    # a jobs=2 run forks its workers itself: the caller imports no pool module and starts no thread
    code = (
        "import sys, threading\n"
        "from qlasso import ExperimentConfig, Sparse, run_curve\n"
        "cfg = ExperimentConfig(n=30, structure=Sparse(5), norm_target=3.0, R=4.0, ensemble='gaussian',\n"
        "                       quantizer='uniform', delta=1.0, m_grid=(100, 200), trials=2, master_seed=3)\n"
        "run_curve(cfg, 'glasso', jobs=2)\n"
        "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)), threading.active_count())\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=_subprocess_env(), check=True, timeout=60,
                         capture_output=True, text=True)
    assert out.stdout.splitlines() == ["[] 1"]


def test_cli_import_loads_no_process_pool(tmp_path):
    # neither `import qlasso.cli` nor a run with --jobs 1 imports the pool modules; a run with
    # --jobs above 1 imports only BrokenProcessPool, and only when a worker dies
    cfg = _write_cfg(tmp_path)
    code = (
        "import sys, qlasso.cli; before = {'multiprocessing', 'concurrent.futures'} & set(sys.modules); "
        f"qlasso.cli.main(['run-uniform', '--config', {cfg!r}, '--out', {str(tmp_path / 'o')!r}, '--jobs', '1']); "
        "print(sorted(before), 'concurrent.futures.process' in sys.modules, 'multiprocessing' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], env=_subprocess_env(), check=True, timeout=60,
                         capture_output=True, text=True)
    assert out.stdout.splitlines()[-1] == "[] False False"


# The config and comment line that tests/test_output.py pins: its hash covers every default it leaves out.
_PINNED_HASH_CONFIG = {"n": 30, "s": 5, "norm": 3.0, "R": 4.0, "trials": 1, "seed": 11}
_PINNED_COMMENT_LINE = "# master_seed=11 config_hash=efd0062f67727e03"

# After `code`, the lines it put in `report`, then whether OpenSSL's _hashlib is loaded (None, its entry
# while blocked, is not), whether the substream words of test_streams.PINNED come out, and the comment
# line of a run-uniform on the _PINNED_HASH_CONFIG written to `small`.
_DIGESTS_CODE = """if True:
    import sys
    report = []
    {code}
    import qlasso.cli
    from qlasso.streams import substream
    openssl = sys.modules.get("_hashlib") is not None
    words = {{k: tuple(int(v) for v in substream(*k).bit_generator.random_raw(2)) for k in {pinned!r}}}
    assert qlasso.cli.main(["run-uniform", "--config", {small!r}, "--out", {out!r}]) == 0
    with open({out!r} + "/uniform_glasso.csv") as fh:
        line = fh.readline().rstrip()
    print(*report, openssl, words == {pinned!r}, line, sep="\\n")
"""


def _digests(tmp_path, code):
    """The lines _DIGESTS_CODE prints after `code`, run in a BLAS-pinned subprocess."""
    small = tmp_path / "small.json"
    small.write_text(json.dumps(_PINNED_HASH_CONFIG))
    code = _DIGESTS_CODE.format(code=code, pinned=PINNED, small=str(small), out=str(tmp_path / "small"))
    out = subprocess.run([sys.executable, "-c", code], env=_subprocess_env(**dict.fromkeys(BLAS_VARS, "1")),
                         check=True, timeout=60, capture_output=True, text=True)
    return out.stdout.splitlines()


# Whether numpy.random and OpenSSL's _hashlib are loaded once every qlasso module is imported,
# then after a run-onebit with --jobs 2 and after one with --jobs 1, in that order.
_NUMPY_RANDOM_CODE = """import importlib, pkgutil, qlasso
    for module in pkgutil.iter_modules(qlasso.__path__):
        importlib.import_module(f"qlasso.{{module.name}}")
    loaded = lambda: ("numpy.random" in sys.modules, sys.modules.get("_hashlib") is not None)
    states = [loaded()]
    for jobs in ("2", "1"):
        assert qlasso.cli.main(["run-onebit", "--config", {cfg!r}, "--out", {out!r}, "--jobs", jobs]) == 0
        states.append(loaded())
    report += [" ".join(str(random) for random, _ in states), " ".join(str(openssl) for _, openssl in states)]"""


def test_jobs_caller_loads_no_numpy_random(tmp_path):
    # No qlasso module loads numpy.random at import, so a --jobs 2 caller, which only forks
    # and waits, never loads it; its workers do at their first draw, as a --jobs 1 run does.
    # No CLI process loads OpenSSL's _hashlib: it hashes with the builtin SHA-256, and the
    # pinned substream words and config hash come out the same.
    code = _NUMPY_RANDOM_CODE.format(cfg=_write_cfg(tmp_path, quantizer="one_bit", ensemble="rademacher"),
                                     out=str(tmp_path / "o"))
    assert _digests(tmp_path, code)[-5:] == ["False False True", "False False False", "False", "True",
                                             _PINNED_COMMENT_LINE]


@pytest.mark.parametrize("code", ["import hashlib", "sys.modules['_sha256'] = sys.modules['_sha2'] = None"],
                         ids=["hashlib_loaded_first", "no_builtin_sha256"])
def test_cli_keeps_openssl_where_it_cannot_opt_out(tmp_path, code):
    # importing qlasso.cli leaves an OpenSSL _hashlib that hashlib loaded first, and keeps OpenSSL
    # on a build with no builtin SHA-256; either way the digests are unchanged
    code += "\n    import qlasso.cli, hashlib; report.append(hashlib.pbkdf2_hmac('sha256', b'qlasso', b'salt', 2).hex())"
    assert _digests(tmp_path, code)[-4:] == [hashlib.pbkdf2_hmac("sha256", b"qlasso", b"salt", 2).hex(), "True",
                                             "True", _PINNED_COMMENT_LINE]


def test_library_never_blocks_openssl():
    # only the CLI's own process gives up OpenSSL's _hashlib: `import qlasso` and a library
    # run_curve load it as any program would
    code = ("import sys, qlasso; print(sys.modules.get('_hashlib', 'absent')); "
            "qlasso.run_curve(qlasso.ExperimentConfig(30, qlasso.Sparse(5), 3.0, 4.0, 'gaussian', 'uniform', 1.0, "
            "(100,), 2, 11), 'glasso'); print(type(sys.modules['_hashlib']).__name__)")
    out = subprocess.run([sys.executable, "-c", code], env=_subprocess_env(**dict.fromkeys(BLAS_VARS, "1")),
                         check=True, timeout=60, capture_output=True, text=True)
    assert out.stdout.splitlines() == ["absent", "module"]


def test_import_loads_no_numpy_and_cli_pins_blas():
    # `import qlasso` loads no numpy, so `import qlasso.cli` sets every BLAS thread
    # variable to 1 before numpy loads, over a value the environment gave
    code = ("import os, sys, qlasso; print('numpy' in sys.modules); import qlasso.cli; "
            "print(' '.join(os.environ.get(k, '-') for k in {!r}))".format(BLAS_VARS))
    out = subprocess.run([sys.executable, "-c", code], env=_subprocess_env(OPENBLAS_NUM_THREADS="4"), check=True,
                         timeout=60, capture_output=True, text=True)
    assert out.stdout.splitlines() == ["False", "1 1 1"]


def test_nonconverged_solves_reported(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(qlasso.experiment, "MAX_ITERS", 2)
    cfg = _write_cfg(tmp_path, trials=3)
    assert main(["run-uniform", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    err = capsys.readouterr().err.splitlines()
    assert err == [
        f"warning: glasso: 3 of 3 solves did not converge at m={m}" for m in (100, 200, 400)
    ]
    monkeypatch.undo()
    assert main(["run-uniform", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().err == ""


def test_compare_outputs(tmp_path):
    cfg = _write_cfg(tmp_path, m_grid=[100], trials=3, estimators=["glasso", "pbp"])
    rc = main(["compare", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 0
    lines = (tmp_path / "out" / "compare.csv").read_text().splitlines()
    assert lines[1] == "m,glasso_mean_err,pbp_mean_err,winrate_glasso_vs_pbp"
    fields = lines[2].split(",")
    assert fields[0] == "100"
    assert 0.0 <= float(fields[3]) <= 1.0


def test_compare_takes_the_quantizer_from_the_config(tmp_path):
    cfg = _write_cfg(tmp_path, quantizer="one_bit")
    assert main(["compare", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    curves = run_curve(_library_cfg(quantizer="one_bit", delta=None), ("glasso", "pbp"))
    rows = _data_rows(tmp_path / "out" / "compare.csv")
    assert [float(row[1]) for row in rows] == list(curves["glasso"].mean_err)


def test_delta_sweep_outputs(tmp_path):
    cfg = _write_cfg(tmp_path, m_grid=[150], trials=2, delta=[2.0, 0.5])
    rc = main(["delta-sweep", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 0
    lines = (tmp_path / "out" / "delta_sweep.csv").read_text().splitlines()
    assert lines[1] == "estimator,delta,mean_err,std_err,trials"
    assert (tmp_path / "out" / "delta_sweep.svg").exists()


def test_delta_sweep_hashes_the_deltas_it_runs(tmp_path):
    # a config that omits delta sweeps the six default widths, so it writes the hash of one that lists them
    comment_lines = []
    for k, delta in enumerate((None, [4.0, 2.0, 1.0, 0.5, 0.25, 0.125], [4.0, 2.0])):
        cfg = tmp_path / f"cfg{k}.json"
        cfg.write_text(json.dumps(dict(n=30, s=5, norm=3.0, R=4.0, m_grid=[100], trials=1, seed=11,
                                       **({} if delta is None else {"delta": delta}))))
        assert main(["delta-sweep", "--config", str(cfg), "--out", str(tmp_path / f"d{k}")]) == 0
        comment_lines.append((tmp_path / f"d{k}" / "delta_sweep.csv").read_text().splitlines()[0])
    assert comment_lines[0] == comment_lines[1] != comment_lines[2]


# The config hash of each subcommand's defaults, as its default run without a config writes it
_DEFAULT_HASHES = {
    "run-uniform": "54fca7f4a4a42b6d",
    "run-onebit": "b9f581e3ff6587f9",
    "compare": "0f087cca6d457ec5",
    "delta-sweep": "11beea86b351195f",
}


def _hash_of(monkeypatch, *argv):
    """The config hash that `main(argv)` writes, taken before any trial runs: run_curve raises."""
    hashes = []

    def no_trials(*args, **kwargs):
        raise RuntimeError("no trial runs here")

    def spy(cfg):
        hashes.append(qlasso.output.config_hash(cfg))
        return hashes[-1]

    monkeypatch.setattr(qlasso.cli, "config_hash", spy)
    monkeypatch.setattr(qlasso.cli, "run_curve", no_trials)
    monkeypatch.delenv("QLASSO_SEED", raising=False)
    assert main(list(argv)) == 3
    return hashes[-1]


@pytest.mark.parametrize("command", sorted(_DEFAULT_HASHES))
def test_default_config_hashes_are_pinned(command, tmp_path, monkeypatch):
    assert _hash_of(monkeypatch, command, "--out", str(tmp_path)) == _DEFAULT_HASHES[command]


@pytest.mark.parametrize("command,spellings", [
    ("run-uniform", ({"delta": 3}, {"delta": 3.0})),
    ("run-uniform", ({"n": 40}, {"n": 40.0})),
    ("run-uniform", ({"seed": 1}, {"seed": 1.0})),
    ("delta-sweep", ({"delta": [1, 2]}, {"delta": [1.0, 2.0]})),
])
def test_one_hash_per_spelling(command, spellings, tmp_path, monkeypatch):
    # a number is typed by its setting's default, so the hash does not depend on how the config spells it
    hashes = set()
    for k, settings in enumerate(spellings):
        cfg = tmp_path / f"cfg{k}.json"
        cfg.write_text(json.dumps(settings))
        hashes.add(_hash_of(monkeypatch, command, "--config", str(cfg), "--out", str(tmp_path / "out")))
    assert len(hashes) == 1


def test_one_name_estimator_list_takes_the_defaults(tmp_path):
    cfg = _write_cfg(tmp_path, m_grid=[100], trials=1, estimators=["pbp"])
    assert main(["compare", "--config", cfg, "--out", str(tmp_path / "c")]) == 0
    header = (tmp_path / "c" / "compare.csv").read_text().splitlines()[1]
    assert header == "m,glasso_mean_err,pbp_mean_err,dm_mean_err,winrate_glasso_vs_pbp,winrate_glasso_vs_dm"
    cfg = _write_cfg(tmp_path, m_grid=[100], trials=1, delta=[1.0], estimators=["pbp"])
    assert main(["delta-sweep", "--config", cfg, "--out", str(tmp_path / "d")]) == 0
    assert [row[0] for row in _data_rows(tmp_path / "d" / "delta_sweep.csv")] == ["glasso", "pbp"]


def test_tables_match_the_library(tmp_path):
    # every value of compare.csv, uniform_rates.csv and delta_sweep.csv, at 17 significant digits
    g = "{:.17g}".format
    ests = ("glasso", "pbp", "dm")
    cfg = _write_cfg(tmp_path, trials=3, estimators=list(ests))
    assert main(["compare", "--config", cfg, "--out", str(tmp_path / "c")]) == 0
    curves = run_curve(_library_cfg(trials=3, estimators=ests), ests)
    assert _data_rows(tmp_path / "c" / "compare.csv") == [
        [str(m)]
        + [g(curves[e].mean_err[i]) for e in ests]
        + [g(np.mean(curves["glasso"].errors[i] < curves[e].errors[i])) for e in ests[1:]]
        for i, m in enumerate((100, 200, 400))
    ]

    assert main(["run-uniform", "--config", cfg, "--out", str(tmp_path / "r")]) == 0
    fits = [(e, fit_rate(curves[e], model)) for e in ests for model in ("inv_sqrt_m", "sqrtlog_m_over_sqrt_m")]
    assert _data_rows(tmp_path / "r" / "uniform_rates.csv") == [
        [e, fit.model, g(fit.coefficient), g(fit.loglog_slope), g(fit.residual_rms)] for e, fit in fits
    ]

    cfg = _write_cfg(tmp_path, m_grid=[150], trials=3, delta=[2.0, 0.5])
    assert main(["delta-sweep", "--config", cfg, "--out", str(tmp_path / "d")]) == 0
    by_delta = [(d, run_curve(_library_cfg(m_grid=(150,), trials=3, delta=d), ("glasso", "pbp")))
                for d in (2.0, 0.5)]
    assert _data_rows(tmp_path / "d" / "delta_sweep.csv") == [
        [e, g(d), g(c[e].mean_err[0]), g(c[e].std_err[0]), "3"] for e in ("glasso", "pbp") for d, c in by_delta
    ]


def test_malformed_config_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert main(["run-uniform", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


def test_unknown_config_field(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"sparsity": 5}))
    assert main(["run-uniform", "--config", str(bad)]) == 2


@pytest.mark.parametrize("command,overrides", [
    ("compare", dict(estimators=["pbp", "dm"])),
    ("delta-sweep", dict(m_grid=[], delta=[1.0])),
    ("delta-sweep", dict(delta=[])),
    ("delta-sweep", dict(delta=[1.0, -1.0])),
    ("run-uniform", dict(m_grid=[0, 200, 400])),
    ("run-onebit", dict(quantizer="one_bit", m_grid=[1, 200, 400])),
    ("run-uniform", dict(s=0)),
    ("run-uniform", dict(m_grid=[200, 400])),
    ("run-onebit", dict(quantizer="one_bit", m_grid=[400])),
    ("delta-sweep", dict(delta=[True, 2.0])),
    # the subcommand fixes the channel
    ("run-onebit", dict(quantizer="uniform")),
    ("run-uniform", dict(quantizer="one_bit")),
    ("delta-sweep", dict(quantizer="one_bit")),
    ("compare", dict(quantizer="ternary", m_grid=None)),
    # non-finite signal bounds and cell widths
    ("run-uniform", dict(norm=math.nan)),
    ("run-onebit", dict(quantizer="one_bit", R=math.inf)),
    ("run-uniform", dict(delta=math.inf)),
    # counts that are not integers
    ("run-uniform", dict(trials=2.9)),
    ("run-uniform", dict(trials=True)),
    ("run-uniform", dict(n=30.5)),
    ("run-uniform", dict(s="5")),
    ("compare", dict(seed=1.5)),
    ("run-uniform", dict(m_grid=[100, 200.5, 400])),
    ("delta-sweep", dict(m_grid=150.5)),
    # no estimator, or one named twice
    ("run-uniform", dict(estimators=[])),
    ("compare", dict(estimators=["glasso", "pbp", "pbp"])),
    # values of the wrong JSON type, and estimator names checked before the defaults fill in
    ("run-uniform", dict(quantizer=[])),
    ("compare", dict(quantizer={})),
    ("compare", dict(estimators=5)),
    ("compare", dict(estimators=None)),
    ("delta-sweep", dict(estimators=5)),
    ("delta-sweep", dict(estimators=None)),
    ("run-uniform", dict(estimators="glasso")),
    ("compare", dict(estimators=[1])),
    ("compare", dict(estimators=[["glasso"]])),
    ("delta-sweep", dict(estimators=[1])),
    ("delta-sweep", dict(estimators=[["glasso"]])),
    ("delta-sweep", dict(delta={})),
    ("run-uniform", dict(norm="3")),
    ("run-uniform", dict(norm=True)),
    ("run-uniform", dict(out_dir=5)),
    # delta-sweep sweeps a list of deltas at one m
    ("delta-sweep", dict(delta=1.5, m_grid=[150])),
    ("delta-sweep", dict(delta=[1.5], m_grid=[150, 300])),
    # every setting is typed by its default: only delta-sweep takes a list delta, and verify checks all
    ("run-onebit", dict(quantizer="one_bit", delta=[1.0, 2.0])),
    ("compare", dict(quantizer="one_bit", delta=[1.0])),
    ("verify", dict(n=30.5)),
    # the quantizer is typed before a null m_grid looks up its grid
    ("compare", dict(quantizer={}, m_grid=None)),
])
def test_config_mistakes_exit_2_before_any_trial(command, overrides, tmp_path, capsys):
    cfg = _write_cfg(tmp_path, **overrides)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("configuration error: ")
    assert list(out.glob("*")) == []


def test_scalar_delta_required_for_run(tmp_path):
    cfg = _write_cfg(tmp_path, delta=[1.0, 2.0])
    assert main(["run-uniform", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_invalid_experiment_values(tmp_path):
    cfg = _write_cfg(tmp_path, R=1.0)  # below the norm target
    assert main(["run-uniform", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_seed_precedence(tmp_path, monkeypatch):
    cfg = _write_cfg(tmp_path, estimators=["glasso"], m_grid=[100, 150, 200], trials=1)
    out = str(tmp_path / "env")
    monkeypatch.setenv("QLASSO_SEED", "99")
    # config seed wins over the environment
    assert main(["run-uniform", "--config", cfg, "--out", out]) == 0
    head = (tmp_path / "env" / "uniform_glasso.csv").read_text().splitlines()[0]
    assert "master_seed=11" in head
    # flag wins over both
    assert main(["run-uniform", "--config", cfg, "--seed", "5", "--out", out]) == 0
    head = (tmp_path / "env" / "uniform_glasso.csv").read_text().splitlines()[0]
    assert "master_seed=5" in head
    monkeypatch.delenv("QLASSO_SEED")


def test_env_seed_applies_without_config(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("QLASSO_SEED", "not-an-int")
    assert main(["run-uniform", "--out", str(tmp_path / "o")]) == 2


def test_parser_subcommands():
    parser = build_parser()
    args = parser.parse_args(["run-onebit", "--jobs", "2"])
    assert args.command == "run-onebit"
    assert args.jobs == 2
    with pytest.raises(SystemExit):  # verify runs in-process and takes no --jobs
        parser.parse_args(["verify", "--jobs", "2"])


def test_verify_passes(tmp_path, capsys):
    rc = main(["verify", "--out", str(tmp_path / "v"), "--seed", "0"])
    assert rc == 0
    report = (tmp_path / "v" / "verify.txt").read_text()
    assert "[PASS]" in report
    assert "[FAIL]" not in report
    # the first-moment comparison is reported, not asserted
    assert "literal=" in report and "norm-scaled=" in report


def test_verify_failure_exit_code(tmp_path, capsys, monkeypatch):
    # a wrong closed form must make the one-bit bias check, and only it, fail
    monkeypatch.setattr(qlasso.verify, "one_bit_mean_formula", lambda x, T: 0.0)
    rc = main(["verify", "--out", str(tmp_path / "v"), "--seed", "0"])
    assert rc == 1
    report = (tmp_path / "v" / "verify.txt").read_text().splitlines()
    assert len(report) == len(qlasso.verify.CHECKS)
    failed = [line for line in report if line.startswith("[FAIL]")]
    assert len(failed) == 1 and failed[0].startswith("[FAIL] one-bit bias identity:")
    assert "verification failed" in capsys.readouterr().err


def test_readme_lists_the_settings_and_the_subcommands():
    # the README's config example names every config key, and its subcommand table every subcommand
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    example = json.loads(section.split("```json", 1)[1].split("```", 1)[0])
    assert sorted(example) == sorted(_SETTINGS)
    assert sorted(re.findall(r"^\| `([a-z-]+)` \|", section, re.M)) == sorted(_COMMANDS)
