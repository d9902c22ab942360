import hashlib
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import ffspec
from ffspec import (
    InternalCheckError,
    PointSet,
    Space,
    read_set,
    spectrum_search,
    tiling_search,
    verify_fuglede_small,
    verify_spectral_pair,
    verify_tiling_pair,
)
from ffspec import cli, lemmas, spectral, tiling
from ffspec.cli import main
from ffspec.parallel import resolve_workers


def run_cli(argv, capsys):
    code = main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def write_lines(path, *rows):
    path.write_text("\n".join(rows) + "\n")
    return str(path)


@pytest.fixture
def line_file(tmp_path):
    rows = ["# axis line", "p 7", "d 3"]
    rows += [f"{t} 0 0" for t in range(7)]
    return write_lines(tmp_path / "line.txt", *rows)


@pytest.fixture
def plane_file(tmp_path):
    rows = ["p 7", "d 3"]
    rows += [f"0 {y} {z}" for y in range(7) for z in range(7)]
    return write_lines(tmp_path / "plane.txt", *rows)


class TestAnalyze:
    def test_line_report(self, line_file, capsys):
        code, out, _ = run_cli(["analyze", "--set", line_file], capsys)
        assert code == 0
        payload = json.loads(out)
        res = payload["result"]
        assert res["p"] == 7 and res["d"] == 3 and res["size"] == 7
        assert res["line_sup"] == 7
        assert res["plane_sup"] == 7
        assert res["direction_count"] == 1
        assert res["zero_set_size"] == 294
        assert res["spectral"]["status"] == "witness"
        assert res["tile"]["status"] == "witness"
        assert payload["meta"]["workers"] == 1

    def test_witnesses_reload_and_verify(self, line_file, capsys):
        code, out, _ = run_cli(["analyze", "--set", line_file], capsys)
        assert code == 0
        res = json.loads(out)["result"]
        spc = Space(res["p"], res["d"])
        E = PointSet.from_coords(
            spc, [(t, 0, 0) for t in range(7)])
        A = PointSet.from_coords(
            spc, [tuple(r) for r in res["spectral"]["witness"]])
        T = PointSet.from_coords(
            spc, [tuple(r) for r in res["tile"]["witness"]])
        assert A.size == 7
        assert E.size * T.size == 343
        assert verify_spectral_pair(E, A)
        assert verify_tiling_pair(E, T)

    def test_plane_both_witnesses(self, plane_file, capsys):
        code, out, _ = run_cli(["analyze", "--set", plane_file], capsys)
        assert code == 0
        res = json.loads(out)["result"]
        assert res["size"] == 49
        assert res["spectral"]["status"] == "witness"
        assert res["tile"]["status"] == "witness"

    def test_size_filtered(self, tmp_path, capsys):
        f = write_lines(tmp_path / "four.txt",
                        "p 7", "d 2", "0 0", "1 0", "0 1", "1 1")
        code, out, _ = run_cli(["analyze", "--set", f], capsys)
        assert code == 0
        res = json.loads(out)["result"]
        assert res["spectral"]["status"] == "size_filtered"
        assert res["spectral"]["nodes"] == 0
        assert res["tile"]["status"] == "size_filtered"
        assert "witness" not in res["spectral"]

    def test_budget_aborts_with_exit_2(self, line_file, capsys):
        code, out, _ = run_cli(
            ["analyze", "--set", line_file, "--budget", "1"], capsys)
        assert code == 2
        res = json.loads(out)["result"]
        assert res["spectral"]["status"] == "aborted"
        assert res["tile"]["status"] == "aborted"

    def test_seven_points_tile_within_small_budget(self, tmp_path, capsys):
        # the first of random.Random(1)'s 7-point sets of F_7^3: it has a
        # spectrum, so it tiles, and branching on the most constrained
        # point finds the tiling in 61 nodes (the lowest uncovered point
        # first found none in 2 * 10^5)
        idx = sorted(random.Random(1).sample(range(343), 7))
        f = write_lines(tmp_path / "seven.txt", "p 7", "d 3",
                        *(f"{i % 7} {i // 7 % 7} {i // 49}" for i in idx))
        code, out, _ = run_cli(["analyze", "--set", f, "--budget", "200"],
                               capsys)
        assert code == 0
        res = json.loads(out)["result"]
        assert res["spectral"]["status"] == "witness"
        assert res["tile"]["status"] == "witness"
        assert res["tile"]["nodes"] <= 200
        spc = Space(7, 3)
        T = PointSet.from_coords(spc, [tuple(r)
                                       for r in res["tile"]["witness"]])
        assert verify_tiling_pair(PointSet(spc, idx), T)

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_budget_below_one_is_usage_error(self, budget, line_file,
                                             capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--set", line_file, "--budget", budget])
        assert exc.value.code == 1
        cap = capsys.readouterr()
        assert cap.out == ""
        assert f"--budget: must be >= 1, got {budget}" in cap.err

    def test_section_toggles(self, line_file, capsys):
        code, out, _ = run_cli(
            ["analyze", "--set", line_file, "--no-tiling"], capsys)
        res = json.loads(out)["result"]
        assert code == 0 and "tile" not in res and "spectral" in res
        code, out, _ = run_cli(
            ["analyze", "--set", line_file, "--no-spectral"], capsys)
        res = json.loads(out)["result"]
        assert code == 0 and "spectral" not in res and "tile" in res

    def test_report_file(self, line_file, tmp_path, capsys):
        rp = tmp_path / "out.json"
        code, out, _ = run_cli(
            ["analyze", "--set", line_file, "--report", str(rp)], capsys)
        assert code == 0
        assert out == ""
        payload = json.loads(rp.read_text())
        assert payload["result"]["zero_set_size"] == 294

    def test_malformed_file(self, tmp_path, capsys):
        f = write_lines(tmp_path / "bad.txt", "p 7", "d 2", "1 2 3")
        code, _, err = run_cli(["analyze", "--set", f], capsys)
        assert code == 1
        assert err.startswith("error:")

    def test_unsupported_space_before_body(self, tmp_path, capsys):
        # the body line is out of range for p = 4, but the space is named
        f = write_lines(tmp_path / "bad.txt", "p 4", "d 3", "3 3 5")
        code, _, err = run_cli(["analyze", "--set", f], capsys)
        assert (code, err) == (
            1, "error: p must be the prime 3, 5 or 7, got 4\n")

    def test_non_ascii_file_names_its_line(self, tmp_path, capsys):
        f = tmp_path / "bad.txt"
        f.write_bytes("p 7\nd 2\n1 \u2013 2\n".encode())
        code, _, err = run_cli(["analyze", "--set", str(f)], capsys)
        assert (code, err) == (1, "error: line 3: non-ASCII byte\n")

    def test_missing_file(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["analyze", "--set", str(tmp_path / "nope.txt")], capsys)
        assert code == 1
        assert "error:" in err


class TestReportPath:
    """A report path that cannot be written exits 1 with one error: line;
    a missing directory is found before any work is done."""
    ARGS = {
        "verify": ["verify", "--lemma", "fuglede-3-2"],
        "falsify": ["falsify", "--p", "5", "--d", "3", "--size", "10",
                    "--trials", "5", "--seed", "1"],
        "analyze": ["analyze", "--set"],
    }
    WORK = {"verify": "verify_fuglede_small", "falsify": "falsify_random",
            "analyze": "read_set"}

    def argv(self, cmd, line_file, report):
        extra = [line_file] if cmd == "analyze" else []
        return self.ARGS[cmd] + extra + ["--report", str(report)]

    @pytest.mark.parametrize("cmd", ["verify", "falsify", "analyze"])
    def test_missing_directory_fails_before_work(self, cmd, line_file,
                                                 tmp_path, monkeypatch,
                                                 capsys):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the report check")

        monkeypatch.setattr(cli, self.WORK[cmd], no_work)
        report = tmp_path / "missing" / "x.json"
        code, out, err = run_cli(self.argv(cmd, line_file, report), capsys)
        assert code == 1 and out == ""
        assert err == f"error: report directory {report.parent} " \
            "does not exist\n"

    @pytest.mark.parametrize("cmd", ["verify", "falsify", "analyze"])
    def test_file_as_directory_fails_before_work(self, cmd, line_file,
                                                 tmp_path, monkeypatch,
                                                 capsys):
        # the directory part names a regular file, which does exist
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the report check")

        monkeypatch.setattr(cli, self.WORK[cmd], no_work)
        parent = tmp_path / "file.txt"
        parent.write_text("")
        report = parent / "out.json"
        code, out, err = run_cli(self.argv(cmd, line_file, report), capsys)
        assert code == 1 and out == ""
        assert err == f"error: report directory {parent} " \
            "is not a directory\n"

    @pytest.mark.parametrize("cmd", ["verify", "falsify", "analyze"])
    def test_unwritable_path_fails_before_work(self, cmd, line_file,
                                               tmp_path, monkeypatch, capsys):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the report check")

        monkeypatch.setattr(cli, self.WORK[cmd], no_work)
        code, out, err = run_cli(self.argv(cmd, line_file, tmp_path), capsys)
        assert code == 1 and out == ""
        assert err == f"error: report path {tmp_path} is a directory\n"
        # an empty path names the working directory
        code, out, err = run_cli(self.argv(cmd, line_file, ""), capsys)
        assert code == 1 and out == ""
        assert err == "error: report path . is a directory\n"
        # a directory without write access; os.access is patched because
        # a root process may write anywhere
        monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
        report = tmp_path / "x.json"
        code, out, err = run_cli(self.argv(cmd, line_file, report), capsys)
        assert code == 1 and out == ""
        assert err == f"error: report directory {tmp_path} is not writable\n"

    @pytest.mark.parametrize("cmd", ["verify", "falsify", "analyze"])
    def test_failed_write_is_one_line(self, cmd, line_file, tmp_path,
                                      monkeypatch, capsys):
        # the path passes the early check; the write itself fails
        def refuse(self, text):
            raise PermissionError(13, "Permission denied", str(self))

        monkeypatch.setattr(cli.Path, "write_text", refuse)
        report = tmp_path / "x.json"
        code, out, err = run_cli(self.argv(cmd, line_file, report), capsys)
        assert code == 1 and out == ""
        assert err == "error: cannot write report: [Errno 13] Permission " \
            f"denied: '{report}'\n"
        assert not report.exists()

    @pytest.mark.parametrize("cmd", ["verify", "falsify", "analyze"])
    def test_write_error_is_one_line(self, cmd, line_file, tmp_path, capsys):
        # the report path is a directory, so writing it raises OSError
        code, out, err = run_cli(self.argv(cmd, line_file, tmp_path), capsys)
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert str(tmp_path) in err


class TestReportLayout:
    """meta holds the CLI's own measurements; result holds no time."""
    ARGS = TestReportPath.ARGS
    META = {"elapsed_seconds", "workers", "timestamp", "host",
            "result_sha256"}

    def report(self, cmd, line_file, capsys):
        extra = [line_file] if cmd == "analyze" else []
        code, out, err = run_cli(self.ARGS[cmd] + extra, capsys)
        assert code == 0 and err == ""
        return json.loads(out)

    @pytest.mark.parametrize("cmd", ["verify", "falsify", "analyze"])
    def test_meta_and_result_keys(self, cmd, line_file, capsys):
        payload = self.report(cmd, line_file, capsys)
        meta, res = payload["meta"], payload["result"]
        assert set(meta) == self.META
        secs = meta["elapsed_seconds"]
        assert type(secs) in (int, float) and secs >= 0
        assert meta["workers"] == (1 if cmd == "analyze" else resolve_workers())
        assert not any(k in res for k in ("elapsed_seconds", "workers"))
        assert not any("time" in k or "second" in k for k in res)

    @pytest.mark.parametrize("to_file", [False, True],
                             ids=["stdout", "file"])
    @pytest.mark.parametrize("cmd", ["verify", "falsify", "analyze"])
    def test_written_result_is_the_hashed_bytes(self, cmd, to_file,
                                                line_file, tmp_path, capsys):
        # result is the report's last key, on one line of its own
        extra = [line_file] if cmd == "analyze" else []
        rp = tmp_path / "r.json"
        extra += ["--report", str(rp)] if to_file else []
        code, out, err = run_cli(self.ARGS[cmd] + extra, capsys)
        assert code == 0 and err == ""
        if to_file:
            assert out == ""
        text = rp.read_text() if to_file else out
        payload = json.loads(text)
        assert list(payload) == ["meta", "result"]
        *_, line, close = text.split("\n")[:-1]
        assert close == "}" and line.startswith('  "result": ')
        raw = line.removeprefix('  "result": ')
        assert raw == json.dumps(payload["result"], sort_keys=True,
                                 separators=(",", ":"))
        assert hashlib.sha256(raw.encode()).hexdigest() == \
            payload["meta"]["result_sha256"]

    @pytest.mark.parametrize("cmd", ["verify", "falsify", "analyze"])
    def test_cli_clock_times_the_library_call(self, cmd, line_file,
                                              monkeypatch, capsys):
        # a fake clock that only the library call advances
        now = [10.0]
        name = {"verify": "verify_fuglede_small", "falsify": "falsify_random",
                "analyze": "spectrum_search"}[cmd]
        work = getattr(cli, name)

        def slow_work(*args, **kwargs):
            now[0] += 2.5
            return work(*args, **kwargs)

        monkeypatch.setattr(cli, "perf_counter", lambda: now[0])
        monkeypatch.setattr(cli, name, slow_work)
        payload = self.report(cmd, line_file, capsys)
        assert payload["meta"]["elapsed_seconds"] == 2.5


class TestVerify:
    def test_unknown_lemma_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--lemma", "lm99"])
        assert exc.value.code == 1

    def test_fuglede_3_2_report(self, tmp_path, capsys):
        rp = tmp_path / "f32.json"
        code, out, err = run_cli(
            ["verify", "--lemma", "fuglede-3-2", "--report", str(rp)],
            capsys)
        assert code == 0 and out == "" and err == ""
        payload = json.loads(rp.read_text())
        assert set(payload) == {"result", "meta"}
        res = payload["result"]
        assert res["lemma_id"] == "fuglede-3-2"
        assert res["counterexamples"] == []
        sizes = res["details"]["sizes"]
        assert sizes["3"] == {"sets": 84, "spectral": 84, "tiles": 84}
        assert sizes["6"] == {"sets": 84, "spectral": 0, "tiles": 0}
        canonical = json.dumps(res, sort_keys=True, separators=(",", ":"))
        assert payload["meta"]["result_sha256"] == \
            hashlib.sha256(canonical.encode()).hexdigest()
        assert res == verify_fuglede_small(3, 2, (3, 6)).result_dict()

    def test_result_stable_across_threads_and_reruns(self, tmp_path, capsys):
        payloads = []
        for i, threads in enumerate(("1", "2", "1")):
            rp = tmp_path / f"r{i}.json"
            code, _, _ = run_cli(
                ["verify", "--lemma", "fuglede-3-2", "--threads", threads,
                 "--report", str(rp)], capsys)
            assert code == 0
            payloads.append(json.loads(rp.read_text()))
        hashes = {p["meta"]["result_sha256"] for p in payloads}
        assert len(hashes) == 1
        assert payloads[0]["result"] == payloads[1]["result"] \
            == payloads[2]["result"]
        # --threads is capped at the host's core count
        assert payloads[1]["meta"]["workers"] == min(2, os.cpu_count() or 1)


class TestInternalFailure:
    """Exit 3: an internal check failed or a sweep ran out of budget."""

    def run_f32(self, tmp_path, capsys):
        rp = tmp_path / "f32.json"
        code, out, err = run_cli(
            ["verify", "--lemma", "fuglede-3-2", "--threads", "1",
             "--report", str(rp)], capsys)
        assert out == "" and not rp.exists()
        return code, err

    def test_sweep_budget_exits_3(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(lemmas, "_clique_in_zero_set",
                            lambda *args: ("aborted", None, 1))
        code, err = self.run_f32(tmp_path, capsys)
        assert code == 3
        assert err.startswith("error:") and err.count("\n") == 1
        assert "budget" in err

    def test_internal_check_exits_3(self, monkeypatch, tmp_path, capsys):
        # a search that returns a false tiling complement
        def false_tiling(p, d, rows, budget):
            return [("witness", [0], 1)] * len(rows)

        monkeypatch.setattr(lemmas, "tiling_search_rows", false_tiling)
        code, err = self.run_f32(tmp_path, capsys)
        assert code == 3
        assert err.startswith("error:") and err.count("\n") == 1
        assert "tiling" in err


class TestCounterexample:
    """Exit 1: a run found a counterexample; it is in the report."""

    RUNS = {
        "verify": (["verify", "--lemma", "fuglede-3-2"],
                   "verify_fuglede_small", "fuglede-3-2: 1 counterexamples"),
        "falsify": (["falsify", "--p", "5", "--d", "3", "--size", "10",
                     "--trials", "5", "--seed", "1"],
                    "falsify_random", "falsify: 1 spectral witnesses"),
    }

    @pytest.mark.parametrize("cmd", ["verify", "falsify"])
    def test_counterexample_exits_1(self, cmd, monkeypatch, tmp_path,
                                    capsys):
        argv, work, line = self.RUNS[cmd]
        cex = {"set": [[0, 0, 0], [1, 0, 0]], "spectrum": [[0, 0, 0]]}
        report = lemmas.LemmaReport(cmd, "F_5^3", 125, "translations", 1,
                                    [cex], {})
        monkeypatch.setattr(cli, work, lambda *args, **kwargs: report)
        rp = tmp_path / "r.json"
        code, out, err = run_cli(argv + ["--report", str(rp)], capsys)
        assert code == 1 and out == ""
        assert err == line + "\n"
        payload = json.loads(rp.read_text())
        assert payload["result"]["counterexamples"] == [cex]
        canonical = json.dumps(payload["result"], sort_keys=True,
                               separators=(",", ":"))
        assert payload["meta"]["result_sha256"] == \
            hashlib.sha256(canonical.encode()).hexdigest()


PARENT_PID = os.getpid()
F32_THREADS_2 = ["verify", "--lemma", "fuglede-3-2", "--threads", "2"]
# fuglede-3-2 and fuglede-5-2 have one chunk at their README sizes and
# run in the calling process; a falsify run of two chunks forks
F52_THREADS_2 = ["verify", "--lemma", "fuglede-5-2", "--threads", "2"]
FALSIFY_THREADS_2 = ["falsify", "--p", "5", "--d", "3", "--size", "10",
                     "--trials", str(lemmas._FALSIFY_CHUNK + 1), "--seed",
                     "1", "--threads", "2"]


def aborted_search(*args):
    return ("aborted", None, 1)


def false_tiling(p, d, rows, budget):
    # a search that returns a false tiling complement
    return [("witness", [0], 1)] * len(rows)


def dying_chunk(args):
    # forked workers die without a result; the caller never gets here
    if os.getpid() != PARENT_PID:
        os.kill(os.getpid(), signal.SIGKILL)
    raise AssertionError("a chunk ran in the calling process")


class TestExitPaths:
    """Every documented exit path of cli.main, with a report path given.
    Exits 1 and 3 print one "error:" line (after argparse's usage text
    on a usage error); only exits 0 and 2 write the report.  The exit-3
    runs use two workers: fuglede-5-2 is one chunk and fails in the
    calling process, and the falsify run forks two workers that die."""

    CASES = {
        "verified": (F32_THREADS_2, None, 0),
        "usage": (["verify", "--lemma", "lm99"], None, 1),
        "bad_input": (["analyze", "--set", "{bad}"], None, 1),
        "budget_spent": (["analyze", "--set", "{line}", "--budget", "1"],
                         None, 2),
        "internal_check": (F52_THREADS_2,
                           ("tiling_search_rows", false_tiling), 3),
        "sweep_budget": (F52_THREADS_2,
                         ("_clique_in_zero_set", aborted_search), 3),
        "worker_died": (FALSIFY_THREADS_2, ("_falsify_chunk", dying_chunk),
                        3),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_exit_code(self, case, line_file, tmp_path, monkeypatch,
                       capsys, fork_count):
        argv, stub, want = self.CASES[case]
        bad = write_lines(tmp_path / "bad.txt", "p 7", "d 2", "1 2 3")
        argv = [a.format(bad=bad, line=line_file) for a in argv]
        if stub:
            monkeypatch.setattr(lemmas, *stub)
        # two workers even on a one-core host
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        rp = tmp_path / "r.json"
        try:
            code = main(argv + ["--report", str(rp)])
        except SystemExit as exc:
            code = exc.code
        cap = capsys.readouterr()
        assert code == want and cap.out == ""
        assert rp.exists() == (want in (0, 2))
        assert fork_count() == (2 if case == "worker_died" else 0)
        lines = cap.err.splitlines()
        if want in (0, 2):
            assert lines == []
        elif case == "usage":
            assert lines[0].startswith("usage:")
            assert [ln for ln in lines if "error:" in ln] == lines[-1:]
        else:
            assert len(lines) == 1 and lines[0].startswith("error:")


def non_spectrum(space, zmask, n, budget):
    # a clique stage that answers the line (0, s, 0), s in F_7: no
    # spectrum of the axis line, whose transform vanishes only off x1 = 0
    return "witness", tuple(range(0, 7 * n, 7)), 1


class TestAnalyzeInternalFailure:
    """Exit 3 on the analyze path: a search whose own witness check
    fails raises InternalCheckError, and analyze writes no report."""

    STUBS = {
        "spectral": (spectral, "_clique_in_zero_set", non_spectrum,
                     spectrum_search, "witness"),
        "tiling": (tiling, "tiling_search_rows", false_tiling,
                   tiling_search, "tiling"),
    }

    @pytest.mark.parametrize("name", list(STUBS))
    def test_witness_check_exits_3(self, name, line_file, tmp_path,
                                   monkeypatch, capsys):
        module, attr, stub, search, word = self.STUBS[name]
        monkeypatch.setattr(module, attr, stub)
        with pytest.raises(InternalCheckError, match=word):
            search(read_set(line_file))
        rp = tmp_path / "r.json"
        code, out, err = run_cli(
            ["analyze", "--set", line_file, "--report", str(rp)], capsys)
        assert code == 3 and out == "" and not rp.exists()
        assert err.startswith("error:") and err.count("\n") == 1
        assert word in err


class TestWorkerCap:
    """--threads and FFSPEC_THREADS are capped at os.cpu_count(); no
    test here forks a worker."""

    @pytest.fixture
    def pool(self, monkeypatch):
        # run the chunks in this process, recording the worker count
        seen = []

        def serial(fn, chunk_args, workers):
            seen.append(workers)
            return [fn(a) for a in chunk_args]

        monkeypatch.setattr(lemmas, "run_chunks", serial)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        return seen

    def test_resolve_caps_flag_and_env(self, pool, monkeypatch):
        monkeypatch.delenv("FFSPEC_THREADS", raising=False)
        assert resolve_workers(5000) == 3
        assert resolve_workers(2) == 2
        assert resolve_workers() == 1
        monkeypatch.setenv("FFSPEC_THREADS", "5000")
        assert resolve_workers() == 3
        assert resolve_workers(1) == 1
        with pytest.raises(ValueError):
            resolve_workers(0)
        # an unknown core count allows one worker
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert resolve_workers(5000) == 1

    @pytest.mark.parametrize("argv", [
        ["--threads", "5000"], ["--threads", "3"]])
    def test_falsify_threads_capped(self, pool, tmp_path, capsys, argv):
        rp = tmp_path / "f.json"
        code, _, err = run_cli(
            ["falsify", "--p", "5", "--d", "3", "--size", "10",
             "--trials", "60", "--seed", "123", *argv,
             "--report", str(rp)], capsys)
        assert code == 0 and err == ""
        assert pool == [3]
        assert json.loads(rp.read_text())["meta"]["workers"] == 3

    def test_env_threads_capped(self, pool, monkeypatch, capsys):
        monkeypatch.setenv("FFSPEC_THREADS", "5000")
        code, out, _ = run_cli(["verify", "--lemma", "fuglede-3-2"], capsys)
        assert code == 0
        assert set(pool) == {3}
        assert json.loads(out)["meta"]["workers"] == 3

    def test_library_workers_uncapped(self, pool):
        verify_fuglede_small(3, 2, (3, 6), workers=8)
        assert set(pool) == {8}


class TestFalsify:
    ARGS = ["falsify", "--p", "5", "--d", "3", "--size", "10",
            "--trials", "60", "--seed", "123"]

    def test_clean_run(self, capsys):
        code, out, err = run_cli(self.ARGS, capsys)
        assert code == 0 and err == ""
        res = json.loads(out)["result"]
        assert res["seed"] == 123
        assert res["lemma_id"] == "falsify-5-3-10"
        assert res["counterexamples"] == []
        assert sum(res["details"]["outcomes"].values()) == 60

    def test_repeat_runs_identical_result(self, tmp_path, capsys):
        outs = []
        for i in range(2):
            rp = tmp_path / f"f{i}.json"
            code, _, _ = run_cli(self.ARGS + ["--report", str(rp)], capsys)
            assert code == 0
            outs.append(json.loads(rp.read_text()))
        assert outs[0]["result"] == outs[1]["result"]
        assert outs[0]["meta"]["result_sha256"] == \
            outs[1]["meta"]["result_sha256"]

    def test_invalid_size(self, capsys):
        code, _, err = run_cli(
            ["falsify", "--p", "7", "--d", "3", "--size", "20",
             "--trials", "5", "--seed", "1"], capsys)
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_size_above_space_order(self, threads, capsys):
        # every d = 1 size mp exceeds p; rejected before any chunk runs
        code, out, err = run_cli(
            ["falsify", "--p", "7", "--d", "1", "--size", "14",
             "--trials", "5", "--seed", "1", "--threads", threads], capsys)
        assert code == 1 and out == ""
        assert err == "error: size 14 exceeds p^d = 7\n"

    def test_negative_seed_exits_1(self, tmp_path, capsys):
        rp = tmp_path / "r.json"
        code, out, err = run_cli(
            ["falsify", "--p", "5", "--d", "3", "--size", "10",
             "--trials", "5", "--seed", "-1", "--report", str(rp)], capsys)
        assert code == 1 and out == ""
        assert err == "error: seed must be non-negative, got -1\n"
        assert not rp.exists()

    def test_missing_required_flag_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["falsify", "--p", "7", "--d", "3"])
        assert exc.value.code == 1

    @pytest.mark.parametrize("p", [17, 0, -7])
    def test_space_outside_domain_exits_1(self, capsys, p):
        # the space is checked before the size is read against p
        code, out, err = run_cli(
            ["falsify", "--p", str(p), "--d", "3", "--size", "21",
             "--trials", "1", "--seed", "1"], capsys)
        assert code == 1 and out == ""
        assert err == f"error: p must be the prime 3, 5 or 7, got {p}\n"


class TestParserReuse:
    def test_two_subcommands_in_one_process(self, line_file, capsys):
        # main() reuses one parser per process; no option of one call may
        # carry over into the next
        runs = [["analyze", "--set", line_file, "--no-tiling"],
                TestFalsify.ARGS,
                ["analyze", "--set", line_file]]
        results = []
        for argv in runs + runs:
            code, out, _ = run_cli(argv, capsys)
            assert code == 0
            results.append(json.loads(out)["result"])
        assert results[:3] == results[3:]
        assert "tile" not in results[0] and "seed" not in results[0]
        assert results[1]["seed"] == 123
        assert results[2]["tile"]["status"] == "witness"
        assert results[2]["spectral"] == results[0]["spectral"]
        assert cli.build_parser() is cli.build_parser()
        with pytest.raises(SystemExit) as exc:
            main(["analyze"])
        assert exc.value.code == 1


_GRAPH_F = "1254343650135045561352130154656234160541525613144"
_LINES = [((0, 0, 1), (1, 2, 0)), ((0, 2, 5), (1, 6, 5)),
          ((0, 3, 0), (1, 3, 5)), ((0, 3, 1), (1, 6, 5)),
          ((0, 4, 3), (1, 3, 2)), ((0, 5, 6), (1, 6, 1))]


class TestAnalyzePinned:
    """One set per class of the analyze benchmark; full result hashes
    taken from the Point-object implementation of the set operations.
    The ppoint hash was re-taken when the tiling search began to branch
    on the most constrained point: its tile section went from 135 nodes
    to 25 and names another complement."""

    SETS = {
        # graph of f: F_7^2 -> F_7
        "graph": (7, [(x, y, int(_GRAPH_F[7 * x + y]))
                      for x in range(7) for y in range(7)],
                  "485d8ecc54df3b66cb715f6468872f4fb0a8dc6d033c8610d90ca552b56b7d12"),
        "ppoint": (5, [(0, 4, 4), (1, 2, 4), (2, 0, 4), (3, 4, 3), (4, 3, 4)],
                   "bb0c853240c8956b2064036b475f7796b0a23692fc5c2d87de1fc0ab634bd941"),
        # six disjoint lines of F_7^3
        "lines": (7, [tuple((b[k] + t * v[k]) % 7 for k in range(3))
                      for b, v in _LINES for t in range(7)],
                  "7e031a1aae2980fe39ff10ecf4467678d78b45207676b1a42ba64b29c726969b"),
        "mp": (5, [(0, 1, 1), (0, 2, 0), (0, 2, 2), (1, 3, 3), (2, 2, 2),
                   (2, 2, 3), (2, 3, 0), (2, 3, 3), (2, 3, 4), (3, 0, 4),
                   (3, 1, 1), (3, 1, 4), (3, 3, 4), (4, 2, 3), (4, 4, 1)],
               "19a3fa69b590d2d3e2251f67cc21468f79abd00f6412a8eea10dde4851b44d7a"),
    }

    @pytest.mark.parametrize("name", list(SETS))
    def test_result_sha256(self, name, tmp_path, capsys):
        p, rows, digest = self.SETS[name]
        f = write_lines(tmp_path / f"{name}.txt", f"p {p}", "d 3",
                        *(" ".join(map(str, r)) for r in rows))
        code, out, _ = run_cli(["analyze", "--set", f], capsys)
        assert code == 0
        assert json.loads(out)["meta"]["result_sha256"] == digest


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
VERIFY_F32 = ["verify", "--lemma", "fuglede-3-2"]


def declared_script(name):
    """The "module:attr" target of `name` in pyproject's [project.scripts]."""
    text = PYPROJECT.read_text()
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10: read that one table by hand
        scripts, inside = {}, False
        for line in text.splitlines():
            line = line.strip()
            if line.startswith("["):
                inside = line == "[project.scripts]"
            elif inside and "=" in line:
                key, value = line.split("=", 1)
                scripts[key.strip().strip('"')] = value.strip().strip('"')
    else:
        scripts = tomllib.loads(text)["project"]["scripts"]
    assert name in scripts, f"no [project.scripts] entry for {name!r}"
    return scripts[name]


def launcher_cmd(target):
    """Run `target` in a fresh interpreter as pip's generated launcher
    does: import it, then sys.exit(<attr>()) with the CLI arguments in
    sys.argv[1:]."""
    module, _, attr = target.partition(":")
    source = f"import sys\nfrom {module} import {attr}\nsys.exit({attr}())\n"
    return [sys.executable, "-c", source]


def child_env():
    # the child imports the same ffspec package as this test
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(ffspec.__file__).parents[1])]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_command(cmd, cwd):
    return subprocess.run(cmd, cwd=cwd, env=child_env(), capture_output=True,
                          text=True, timeout=120)


def verify_f32_report(cmd, tmp_path, name):
    rp = tmp_path / f"{name}.json"
    proc = run_command(cmd + VERIFY_F32 + ["--report", str(rp)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(rp.read_text())
    assert payload["result"]["lemma_id"] == "fuglede-3-2"
    return payload


class TestInstalledScript:
    def test_console_entry_point(self, tmp_path):
        # the declared console command, run as pip's launcher would run
        # it; the launcher file itself is pip's, not ffspec's
        cmd = launcher_cmd(declared_script("ffspec"))
        verify_f32_report(cmd, tmp_path, "cli")

    @pytest.mark.skipif(shutil.which("ffspec") is None,
                        reason="ffspec console script not installed")
    def test_installed_script_on_path(self, tmp_path):
        installed = verify_f32_report(
            [shutil.which("ffspec")], tmp_path, "installed")
        declared = verify_f32_report(
            launcher_cmd(declared_script("ffspec")), tmp_path, "declared")
        assert installed["meta"]["result_sha256"] == \
            declared["meta"]["result_sha256"]


class TestPythonM:
    CMD = [sys.executable, "-m", "ffspec"]

    def test_verify_matches_console_entry_point(self, tmp_path):
        module = verify_f32_report(self.CMD, tmp_path, "module")
        declared = verify_f32_report(
            launcher_cmd(declared_script("ffspec")), tmp_path, "declared")
        assert module["meta"]["result_sha256"] == \
            declared["meta"]["result_sha256"]

    def test_usage_error_exits_1(self, tmp_path):
        proc = run_command(
            self.CMD + ["falsify", "--p", "7", "--d", "3"], tmp_path)
        assert proc.returncode == 1
        assert "error:" in proc.stderr


# a falsify run of about 16 s per worker, started once main is entered
INTERRUPTED_RUN = """
import sys
from ffspec.cli import main
print("started", flush=True)
sys.exit(main(["falsify", "--p", "7", "--d", "3", "--size", "21",
               "--trials", "4000000", "--seed", "1", "--threads", "{}"]))
"""


class TestInterruptsAndFailedOutput:
    """An interrupt, and a report that stdout cannot take, each end the
    run with one "error:" line and no traceback."""

    @pytest.mark.parametrize("threads", [1, 2])
    def test_interrupt_is_one_line_and_exit_130(self, tmp_path, threads):
        proc = subprocess.Popen(
            [sys.executable, "-c", INTERRUPTED_RUN.format(threads)],
            cwd=tmp_path, env=child_env(), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True)
        try:
            assert proc.stdout.readline() == "started\n"
            time.sleep(0.5)
            proc.send_signal(signal.SIGINT)
            out, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
            proc.wait()
        assert proc.returncode == 130
        assert (out, err) == ("", "error: interrupted\n")

    def failed_stdout_run(self, tmp_path, stdout):
        proc = subprocess.run(TestPythonM.CMD + VERIFY_F32, cwd=tmp_path,
                              env=child_env(), stdout=stdout,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        assert proc.returncode == 1
        return proc.stderr.splitlines()

    def test_closed_stdout_pipe(self, tmp_path):
        r, w = os.pipe()
        os.close(r)
        try:
            lines = self.failed_stdout_run(tmp_path, w)
        finally:
            os.close(w)
        assert lines == ["error: cannot write report: [Errno 32] Broken pipe"]

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="no /dev/full on this system")
    def test_full_stdout_device(self, tmp_path):
        with open("/dev/full", "wb") as full:
            lines = self.failed_stdout_run(tmp_path, full)
        assert len(lines) == 1
        assert lines[0].startswith("error: cannot write report: ")
