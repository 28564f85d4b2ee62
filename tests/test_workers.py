"""workers.fork_map and the commands that use it: the bytes and the errors of a
sequential run, and no child process left behind. The fork path runs in a
fresh single-threaded process (forking.run_pinned)."""
import json

from forking import run_pinned


def test_results_come_back_in_item_order_from_contiguous_shares():
    run_pinned("""
        use_cpus(4)
        me = os.getpid()
        got = workers.fork_map(lambda i: (i * i, os.getpid()), range(10))
        assert [v for v, _ in got] == [i * i for i in range(10)]
        # shares of 2, 3, 2 and 3 items; the caller maps the first
        pids = [p for _, p in got]
        assert pids[:2] == [me, me] and me not in pids[2:]
        assert [len(set(pids[a:b])) for a, b in ((2, 5), (5, 7), (7, 10))] == [1, 1, 1]
        assert len(set(pids)) == 4 and len(FORKS) == 3
        assert reaped()
        # numpy results cross with their bits
        rows = workers.fork_map(lambda i: np.random.default_rng(i).standard_normal(3), range(5))
        assert all(np.array_equal(r, np.random.default_rng(i).standard_normal(3))
                   for i, r in enumerate(rows))
        assert reaped()
    """)


def test_one_item_one_cpu_or_another_thread_runs_inline():
    run_pinned("""
        import threading

        me = os.getpid()
        use_cpus(4)
        assert workers.fork_map(lambda i: (i, os.getpid()), [7]) == [(7, me)]
        assert workers.fork_map(lambda i: i, []) == []
        use_cpus(1)
        assert workers.fork_map(lambda i: os.getpid(), range(6)) == [me] * 6
        use_cpus(4)
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            assert not workers.can_fork()
            assert workers.fork_map(lambda i: os.getpid(), range(6)) == [me] * 6
        finally:
            stop.set()
            thread.join()
        assert not FORKS
    """)


def test_the_earliest_failing_shares_error_wins_and_each_share_stops_at_its_first(tmp_path):
    run_pinned(f"""
        import time

        log = {str(tmp_path / "ran")!r}
        use_cpus(4)  # items 0-1 in the caller, 2-4, 5-6 and 7-9 in workers 1 to 3

        def fn(i):
            with open(log, "a") as f:
                f.write(f"{{i}}\\n")
            if i == 3:
                time.sleep(0.3)  # worker 1 fails after worker 2
                raise ValueError("item 3")
            if i in (5, 6):
                raise KeyError(i)
            return i

        try:
            workers.fork_map(fn, range(10))
        except ValueError as e:
            assert str(e) == "item 3"
        else:
            raise AssertionError("no error")
        assert reaped()
        ran = {{int(line) for line in open(log)}}
        assert {{0, 1, 2, 3, 5}} <= ran and not ran & {{4, 6}}
    """)


def test_an_error_in_the_callers_share_kills_and_reaps_every_worker():
    run_pinned("""
        import time

        use_cpus(4)
        for error in (ValueError, KeyboardInterrupt):
            def fn(i):
                if i == 0:
                    raise error("the caller's share")
                time.sleep(60)

            t0 = time.monotonic()
            try:
                workers.fork_map(fn, range(4))
            except error as e:
                assert str(e) == "the caller's share"
            assert time.monotonic() - t0 < 30
            assert reaped()
    """)


def test_a_worker_that_ends_without_its_results_is_named():
    out = run_pinned("""
        import signal

        use_cpus(4)

        class TwoArgs(Exception):  # pickles, but cannot be unpickled
            def __init__(self, a, b):
                super().__init__(a)

        def exits(i):
            if i == 2:
                os._exit(3)
            return i

        def killed(i):
            if i == 0:
                return i
            os.kill(os.getpid(), signal.SIGKILL)

        def odd(i):
            if i == 1:
                raise TwoArgs("a", "b")
            return i

        for fn in (exits, killed, odd):
            try:
                workers.fork_map(fn, range(4))
            except ChildProcessError as e:
                print(e)
            assert reaped()
    """)
    assert out.splitlines() == [
        "worker 2 of 4 exited with status 3 before sending its results",
        "worker 1 of 4 was killed by signal 9 before sending its results",
        "worker 1 of 4 failed: TwoArgs('a')",
    ]


def test_commands_write_the_same_bytes_forked_and_inline(tmp_path):
    """generate (300 rows: two 256-row chunks), evaluate and value, each run
    inline on one CPU and forked on two, write the same files; a worker that
    dies is one error line with exit 2, and no output directory."""
    out = run_pinned(f"""
        import contextlib, io, json, shutil
        from pathlib import Path
        from scendiff import metrics
        from scendiff.cli import main

        tmp = Path({str(tmp_path)!r})
        data = tmp / "pv.csv"
        assert main(["synth", "--profile", "sine_pv", "--days", "100", "--seed", "3",
                     "--out", str(data)]) == 0
        cfg = tmp / "cfg.json"
        cfg.write_text(json.dumps({{
            "data": str(data), "schedule": {{"n": 20, "beta_end": 0.5}},
            "model": {{"hidden": [16], "embed_dim": 8}}, "optimizer": {{"epochs": 1}},
            "split": {{"fractions": [0.8, 0.1, 0.1]}}, "m_scenarios": 30}}))
        assert main(["train", "--config", str(cfg), "--out", str(tmp / "trained")]) == 0

        def run(name, cpus):
            use_cpus(cpus)
            FORKS.clear()
            out = tmp / name
            shutil.copytree(tmp / "trained", out)
            common = ["--config", str(cfg), "--out", str(out)]
            assert main(["generate", *common]) == 0
            s, o = str(out / "scenarios_pv_z1.csv"), str(out / "observations_pv_z1.csv")
            assert main(["evaluate", *common, "--scenarios", s, "--observations", o]) == 0
            assert main(["value", *common, "--scenarios-wind", s, "--obs-wind", o,
                         "--scenarios-pv", s, "--obs-pv", o,
                         "--scenarios-load", s, "--obs-load", o]) == 0
            assert reaped()
            return {{p.name: p.read_bytes() for p in out.iterdir()}}, len(FORKS)

        inline, inline_forks = run("inline", 1)
        forked, forks = run("forked", 2)
        assert (inline_forks, forks) == (0, 3), (inline_forks, forks)
        assert {{"scenarios_pv_z1.csv", "observations_pv_z1.csv", "quality_report.json",
                 "reliability.csv", "value_report.json", "value_report.csv"}} <= set(inline)
        assert inline == forked

        me, energy_score = os.getpid(), metrics.energy_score
        metrics.energy_score = lambda x, y: os._exit(3) if os.getpid() != me else energy_score(x, y)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main(["evaluate", "--out", str(tmp / "died"),
                       "--scenarios", str(tmp / "forked" / "scenarios_pv_z1.csv"),
                       "--observations", str(tmp / "forked" / "observations_pv_z1.csv")])
        assert rc == 2 and not (tmp / "died").exists() and reaped()
        assert len(err.getvalue().splitlines()) == 1
        print(err.getvalue(), end="")
    """)
    *printed_paths, line = out.splitlines()
    assert json.loads(line) == {"error": "ChildProcessError", "message":
                                "worker 1 of 2 exited with status 3 before sending its results"}
