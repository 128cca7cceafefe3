"""Fault-tolerant sweep execution under injected chaos.

Exercises the resilient engine behind ``repro.perf.sweep_map`` — per-item
deadlines, bounded deterministic retry, quarantine, checkpoint/resume,
crashed-worker replacement — against the :class:`~repro.robust.SweepChaos`
harness, which injects transient errors, hangs, and hard ``os._exit``
worker crashes on a deterministic per-item schedule.  Also locks down the
two headline guarantees:

* a sweep that loses a worker process mid-flight completes **bit-identical**
  to a fault-free serial run;
* a checkpointed sweep interrupted at item *k* resumes executing only the
  remaining items (verified by call counting).

The CI ``chaos-smoke`` job runs this file on the process and thread
backends.
"""

import base64
import collections
import io
import json
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

import repro
from repro.analysis import ac_analysis
from repro.perf import (
    ON_ITEM_FAILURE_MODES,
    SweepItemTimeout,
    SweepRemoteError,
    SweepWorkerCrash,
    backoff_seconds,
    resolve_checkpoint,
    resolve_retries,
    resolve_timeout,
    sweep_map,
)
from repro.perf.sweep import (
    CHECKPOINT_COMPACT_ENV,
    CHECKPOINT_ENV,
    CHECKPOINT_KEY_ENV,
    MAX_ITEM_RECORDS_ENV,
    RETRIES_ENV,
    TIMEOUT_ENV,
    resolve_checkpoint_compact,
    resolve_max_item_records,
)
from repro.robust import (
    ChaosSpec,
    SweepChaos,
    TransientFault,
    chaos_sweeps,
    tear_final_line,
)


# --- module-level tasks (picklable, unlike closures/lambdas) ---------------
def _square(x):
    return x * x


def _cube(x):
    return x * x * x


def _boom(x):
    if x == 2:
        raise ValueError(f"boom at {x}")
    return x


def _spectrum(x):
    """Array-returning task: exercises result pickling and FP identity."""
    t = np.linspace(0.0, 1.0, 64)
    return np.sin(2.0 * np.pi * x * t) * np.exp(-0.5 * x * t)


def _sleepy(x):
    time.sleep(30.0)
    return x


class _Counted:
    """Task that counts every execution in a file (workers included)."""

    def __init__(self, marker):
        self.marker = marker

    def __call__(self, x):
        with open(self.marker, "ab") as fh:
            fh.write(b".")
        return x * x


class _CrashOnceAt:
    """Kills its worker process the first time it sees ``bad``.

    The marker file makes the crash once-only, so the executor's
    isolated replay of the crash suspect succeeds.
    """

    def __init__(self, marker, bad):
        self.marker = marker
        self.bad = bad

    def __call__(self, x):
        if x == self.bad and not os.path.exists(self.marker):
            open(self.marker, "w").close()
            os._exit(3)
        return x * x


def _calls(marker) -> int:
    try:
        return os.path.getsize(marker)
    except OSError:
        return 0


def _nap(x):
    time.sleep(0.3)
    return x


class _UnpicklableError(Exception):
    """Survives ``pickle.dumps`` but not ``pickle.loads`` (the second
    required argument is missing from ``args``) — the classic shape of
    a worker exception that cannot cross the process boundary."""

    def __init__(self, detail, extra):
        super().__init__(detail)
        self.extra = extra


class _FlakyUnpicklable:
    """Raises :class:`_UnpicklableError` on each item's first execution
    (file-marker attempt counter, so it holds across worker processes)."""

    def __init__(self, marker):
        self.marker = marker

    def __call__(self, x):
        seen = f"{self.marker}.{x}"
        if not os.path.exists(seen):
            open(seen, "w").close()
            raise _UnpicklableError(f"flaky at {x}", x)
        return x * 10


# ---------------------------------------------------------------------------
# knob resolution + primitives
# ---------------------------------------------------------------------------
class TestKnobResolution:
    def test_timeout_env(self, monkeypatch):
        monkeypatch.delenv(TIMEOUT_ENV, raising=False)
        assert resolve_timeout(None) is None
        monkeypatch.setenv(TIMEOUT_ENV, "2.5")
        assert resolve_timeout(None) == 2.5
        assert resolve_timeout(1.0) == 1.0  # arg wins over env
        for junk in ("soon", "-1", "0", "inf"):
            monkeypatch.setenv(TIMEOUT_ENV, junk)
            with pytest.raises(ValueError):
                resolve_timeout(None)

    def test_retries_env_and_mode_default(self, monkeypatch):
        monkeypatch.delenv(RETRIES_ENV, raising=False)
        assert resolve_retries(None, "raise") == 0
        assert resolve_retries(None, "skip") == 0
        assert resolve_retries(None, "retry") == 1
        monkeypatch.setenv(RETRIES_ENV, "3")
        assert resolve_retries(None, "raise") == 3
        monkeypatch.setenv(RETRIES_ENV, "-2")
        with pytest.raises(ValueError):
            resolve_retries(None, "raise")

    def test_checkpoint_env(self, monkeypatch, tmp_path):
        monkeypatch.delenv(CHECKPOINT_ENV, raising=False)
        assert resolve_checkpoint(None) is None
        target = str(tmp_path / "ck.jsonl")
        monkeypatch.setenv(CHECKPOINT_ENV, target)
        assert resolve_checkpoint(None) == target

    def test_unknown_failure_mode_rejected(self):
        assert set(ON_ITEM_FAILURE_MODES) == {"raise", "retry", "skip"}
        with pytest.raises(ValueError, match="on_item_failure"):
            sweep_map(_square, [1], on_item_failure="explode")

    def test_env_timeout_engages_ledger(self, monkeypatch):
        monkeypatch.setenv(TIMEOUT_ENV, "30")
        stats = {}
        assert sweep_map(_square, [1, 2, 3], stats=stats) == [1, 4, 9]
        assert stats["fault_policy"]["timeout"] == 30.0
        ledger = {r["index"]: r for r in stats["items"]}
        assert all(ledger[i]["status"] == "ok" for i in range(3))
        assert all(ledger[i]["attempts"] == 1 for i in range(3))
        assert all(ledger[i]["wall_time"] >= 0.0 for i in range(3))

    def test_backoff_deterministic_and_bounded(self):
        assert backoff_seconds(3, 1) == backoff_seconds(3, 1)
        for attempt in (1, 2, 3):
            d = backoff_seconds(5, attempt, base=0.1)
            lo = 0.1 * 2 ** (attempt - 1) * 0.5
            assert lo <= d < 3 * lo
        # jitter decorrelates neighbouring items
        assert len({backoff_seconds(i, 1) for i in range(8)}) > 1

    def test_fault_exceptions_pickle_roundtrip(self):
        for exc in (SweepItemTimeout(3, 0.5, "kill"), SweepWorkerCrash(7, "gone")):
            clone = pickle.loads(pickle.dumps(exc))
            assert type(clone) is type(exc)
            assert clone.index == exc.index
            assert str(clone) == str(exc)

    def test_chaos_spec_validation(self, tmp_path):
        with pytest.raises(ValueError, match="unknown chaos kind"):
            ChaosSpec(kind="meteor")
        with pytest.raises(ValueError, match="times"):
            ChaosSpec(times=0)
        with pytest.raises(TypeError):
            SweepChaos({0: "crash"}, tmp_path)


# ---------------------------------------------------------------------------
# failure policies: raise / retry / skip
# ---------------------------------------------------------------------------
class TestFailurePolicies:
    def test_skip_returns_partial_with_ledger(self):
        stats = {}
        out = sweep_map(_boom, [1, 2, 3], on_item_failure="skip", stats=stats)
        assert out == [1, None, 3]
        assert stats["quarantined"] == 1
        ledger = {r["index"]: r for r in stats["items"]}
        assert ledger[1]["status"] == "skipped"
        assert ledger[1]["attempts"] == 1
        assert "ValueError: boom at 2" in ledger[1]["failure_cause"]
        assert ledger[0]["status"] == ledger[2]["status"] == "ok"

    def test_retry_recovers_transient(self, tmp_path):
        chaos = SweepChaos({1: ChaosSpec(kind="error")}, tmp_path)
        stats = {}
        with chaos_sweeps(chaos):
            out = sweep_map(
                _square, [1, 2, 3], on_item_failure="retry", stats=stats
            )
        assert out == [1, 4, 9]
        assert chaos.attempts(1) == 2
        assert stats["retried"] == 1
        ledger = {r["index"]: r for r in stats["items"]}
        assert ledger[1]["status"] == "ok"
        assert ledger[1]["attempts"] == 2
        assert ledger[1]["retries"] == 1
        assert ledger[1]["backoff_time"] > 0.0
        # the transient stays visible even though a later attempt won
        assert "TransientFault" in ledger[1]["failure_cause"]

    def test_retry_exhausted_raises_transient(self, tmp_path):
        chaos = SweepChaos({1: ChaosSpec(kind="error", times=5)}, tmp_path)
        stats = {}
        with chaos_sweeps(chaos):
            with pytest.raises(TransientFault):
                sweep_map(_square, [1, 2, 3], on_item_failure="retry", stats=stats)
        assert chaos.attempts(1) == 2  # first try + the single default retry
        ledger = {r["index"]: r for r in stats["items"]}
        assert ledger[1]["status"] == "failed"

    def test_retry_on_filters_exception_types(self):
        stats = {}
        out = sweep_map(
            _boom,
            [1, 2, 3],
            on_item_failure="skip",
            retries=3,
            retry_on=(TransientFault,),
            stats=stats,
        )
        assert out == [1, None, 3]
        ledger = {r["index"]: r for r in stats["items"]}
        assert ledger[1]["attempts"] == 1  # ValueError is not retryable here
        assert stats["retried"] == 0

    def test_raise_mode_with_chaos_propagates(self, tmp_path):
        chaos = SweepChaos({0: ChaosSpec(kind="error", times=99)}, tmp_path)
        with chaos_sweeps(chaos):
            with pytest.raises(TransientFault):
                sweep_map(_square, [1, 2, 3])

    def test_quarantined_poison_item(self, tmp_path):
        chaos = SweepChaos({2: ChaosSpec(kind="error", times=99)}, tmp_path)
        stats = {}
        with chaos_sweeps(chaos):
            out = sweep_map(
                _square, [1, 2, 3, 4], on_item_failure="skip", retries=2, stats=stats
            )
        assert out == [1, 4, None, 16]
        assert chaos.attempts(2) == 3  # first try + two retries
        assert stats["quarantined"] == 1
        assert stats["retried"] == 2


# ---------------------------------------------------------------------------
# per-item deadlines, per backend
# ---------------------------------------------------------------------------
class TestDeadlines:
    def test_serial_signal_enforced(self, tmp_path):
        chaos = SweepChaos({1: ChaosSpec(kind="hang", duration=5.0)}, tmp_path)
        stats = {}
        t0 = time.monotonic()
        with chaos_sweeps(chaos):
            out = sweep_map(
                _square,
                [1, 2, 3],
                backend="serial",
                timeout=0.4,
                on_item_failure="retry",
                stats=stats,
            )
        assert out == [1, 4, 9]
        assert time.monotonic() - t0 < 4.0  # SIGALRM cut the 5 s hang short
        assert stats["timeouts"] == 1
        ledger = {r["index"]: r for r in stats["items"]}
        assert ledger[1]["status"] == "ok"
        assert ledger[1]["attempts"] == 2
        assert "signal" in ledger[1]["failure_cause"]

    def test_thread_backend_abandons_stuck_item(self, tmp_path):
        chaos = SweepChaos({0: ChaosSpec(kind="hang", duration=1.5)}, tmp_path)
        stats = {}
        t0 = time.monotonic()
        with chaos_sweeps(chaos):
            out = sweep_map(
                _square,
                [1, 2, 3, 4],
                workers=2,
                backend="thread",
                timeout=0.3,
                on_item_failure="retry",
                stats=stats,
            )
        assert out == [1, 4, 9, 16]
        assert time.monotonic() - t0 < 8.0
        assert stats["timeouts"] >= 1
        ledger = {r["index"]: r for r in stats["items"]}
        assert ledger[0]["status"] == "ok"
        assert "abandoned" in ledger[0]["failure_cause"]

    def test_thread_abandonment_keeps_other_items_running(self):
        """Abandoning the pool of a stuck item must not run the other
        items that pool is still executing a second time: they stay in
        flight and report through their own futures."""
        hang, release = threading.Event(), threading.Event()
        calls = collections.Counter()
        lock = threading.Lock()

        def task(x):
            with lock:
                calls[x] += 1
                first = calls[x] == 1
            if x == 0 and first:
                hang.wait(30.0)  # stuck until the test ends
            elif x == 0:
                release.set()  # the retry lets item 2 finish
            elif x == 1:
                time.sleep(1.2)
            elif x == 2:
                release.wait(10.0)  # in flight when item 0 is abandoned
            return x * x

        stats = {}
        try:
            out = sweep_map(
                task,
                [0, 1, 2],
                workers=2,
                backend="thread",
                timeout=2.0,
                on_item_failure="retry",
                stats=stats,
            )
        finally:
            hang.set()
        assert out == [0, 1, 4]
        assert calls == {0: 2, 1: 1, 2: 1}
        assert stats["pool_replacements"] == 1
        ledger = {r["index"]: r for r in stats["items"]}
        assert "abandoned" in ledger[0]["failure_cause"]
        assert ledger[2]["status"] == "ok"
        assert ledger[2]["attempts"] == 1

    def test_process_backend_worker_alarm(self, tmp_path):
        chaos = SweepChaos({2: ChaosSpec(kind="hang", duration=30.0)}, tmp_path)
        stats = {}
        t0 = time.monotonic()
        with chaos_sweeps(chaos):
            out = sweep_map(
                _square,
                [1, 2, 3, 4],
                workers=2,
                backend="process",
                timeout=0.5,
                on_item_failure="retry",
                stats=stats,
            )
        assert out == [1, 4, 9, 16]
        assert time.monotonic() - t0 < 25.0  # the in-worker SIGALRM fired
        assert stats["timeouts"] == 1
        ledger = {r["index"]: r for r in stats["items"]}
        assert ledger[2]["status"] == "ok"
        assert "signal" in ledger[2]["failure_cause"]

    def test_timeout_without_retry_raises(self, tmp_path):
        chaos = SweepChaos({1: ChaosSpec(kind="hang", duration=5.0)}, tmp_path)
        with chaos_sweeps(chaos):
            with pytest.raises(SweepItemTimeout) as exc_info:
                sweep_map(_square, [1, 2, 3], backend="serial", timeout=0.3)
        assert exc_info.value.index == 1
        assert exc_info.value.deadline == 0.3


# ---------------------------------------------------------------------------
# worker crashes: pool replacement, breadcrumb replay, bit-identity
# ---------------------------------------------------------------------------
class TestWorkerCrashes:
    def test_worker_crash_mid_sweep_bit_identical(self, tmp_path):
        """ISSUE acceptance: kill a worker mid-sweep; the sweep completes
        bit-identical to a fault-free serial run."""
        items = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
        reference = [_spectrum(x) for x in items]
        chaos = SweepChaos({3: ChaosSpec(kind="crash")}, tmp_path)
        stats = {}
        with chaos_sweeps(chaos):
            got = sweep_map(
                _spectrum,
                items,
                workers=2,
                backend="process",
                on_item_failure="retry",
                stats=stats,
            )
        assert chaos.attempts(3) == 2  # crashed once, replayed once
        assert stats["pool_replacements"] >= 1
        assert len(got) == len(reference)
        for r, g in zip(reference, got):
            np.testing.assert_array_equal(r, g)
        ledger = {r["index"]: r for r in stats["items"]}
        assert all(ledger[i]["status"] == "ok" for i in range(len(items)))

    def test_persistent_crasher_is_quarantined(self, tmp_path):
        chaos = SweepChaos({1: ChaosSpec(kind="crash", times=99)}, tmp_path)
        stats = {}
        with chaos_sweeps(chaos):
            out = sweep_map(
                _square,
                [1, 2, 3, 4],
                workers=2,
                backend="process",
                on_item_failure="skip",
                retries=1,
                stats=stats,
            )
        assert out == [1, None, 9, 16]
        assert stats["quarantined"] == 1
        ledger = {r["index"]: r for r in stats["items"]}
        assert ledger[1]["status"] == "skipped"
        assert "SweepWorkerCrash" in ledger[1]["failure_cause"]

    def test_crash_attribution_inside_chunks_under_load(self, tmp_path):
        """More workers than cores, five items per chunk: the crashing
        item's breadcrumb survives, so it is charged the crash and
        replayed.  Only items that were executing when the pool died
        (at most one per worker) become suspects; their chunk-mates
        are resubmitted free."""
        items = list(range(200))
        chaos = SweepChaos({137: ChaosSpec(kind="crash")}, tmp_path)
        stats = {}
        with chaos_sweeps(chaos):
            out = sweep_map(
                _square, items, workers=4, backend="process", chunksize=5,
                stats=stats,
            )
        assert out == [x * x for x in items]
        assert chaos.attempts(137) == 2
        assert stats["pool_replacements"] == 1
        attempts = {r["index"]: r["attempts"] for r in stats["items"]}
        assert attempts[137] == 2
        replayed = [i for i, a in attempts.items() if a == 2]
        assert len(replayed) <= 4
        assert all(attempts[i] == 1 for i in items if i not in replayed)

    def test_broken_pool_harvests_and_reruns(self, tmp_path):
        """No fault knobs, chunked dispatch: a broken pool harvests
        completed chunks, replays the crash suspect in isolation and
        resubmits the rest to a replacement pool."""
        fn = _CrashOnceAt(str(tmp_path / "marker"), bad=5)
        stats = {}
        out = sweep_map(
            fn, list(range(8)), workers=2, backend="process", chunksize=2, stats=stats
        )
        assert out == [x * x for x in range(8)]
        assert stats["backend"] == "process"
        assert "backend_requested" not in stats
        assert stats["pool_replacements"] >= 1

    def test_crashing_item_does_not_kill_the_caller(self, tmp_path):
        """An unarmed process sweep whose item keeps killing its worker
        must raise SweepWorkerCrash, never run that item in the caller.
        The sweep runs in a child interpreter so that a dying caller
        fails this test instead of killing the test run."""
        script = tmp_path / "crash_sweep.py"
        script.write_text(
            "import os, sys\n"
            "from repro.perf import SweepWorkerCrash, sweep_map\n"
            "\n"
            "def crash_at_5(x):\n"
            "    if x == 5:\n"
            "        os._exit(3)\n"
            "    return x * x\n"
            "\n"
            "if __name__ == '__main__':\n"
            "    try:\n"
            "        sweep_map(crash_at_5, list(range(8)), workers=2,\n"
            "                  backend='process')\n"
            "    except SweepWorkerCrash as exc:\n"
            "        print('caught', exc.index)\n"
            "        sys.exit(0)\n"
            "    sys.exit(1)\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        for var in (TIMEOUT_ENV, RETRIES_ENV, CHECKPOINT_ENV):
            env.pop(var, None)
        proc = subprocess.run(
            [sys.executable, str(script)],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, (proc.returncode, proc.stdout, proc.stderr)
        assert proc.stdout.split() == ["caught", "5"]


# ---------------------------------------------------------------------------
# checkpoint / resume
# ---------------------------------------------------------------------------
class TestCheckpoint:
    def test_interrupted_sweep_resumes_only_remaining(self, tmp_path):
        """ISSUE acceptance: interrupted at item k, the resumed sweep
        executes only the remaining items (verified by call counting)."""
        marker = str(tmp_path / "calls")
        ck = str(tmp_path / "ck.jsonl")
        fn = _Counted(marker)
        items = list(range(6))

        chaos = SweepChaos({3: ChaosSpec(kind="error", times=99)}, tmp_path / "c")
        with chaos_sweeps(chaos):
            with pytest.raises(TransientFault):
                sweep_map(fn, items, backend="serial", checkpoint=ck)
        assert _calls(marker) == 3  # items 0..2 executed before the abort

        stats = {}
        out = sweep_map(fn, items, backend="serial", checkpoint=ck, stats=stats)
        assert out == [x * x for x in items]
        assert _calls(marker) == 6  # only items 3..5 executed on resume
        assert stats["cached"] == 3
        assert stats["checkpoint"]["restored"] == 3
        assert stats["checkpoint"]["saved"] == 3
        ledger = {r["index"]: r for r in stats["items"]}
        assert all(ledger[i]["status"] == "cached" for i in range(3))
        assert all(ledger[i]["status"] == "ok" for i in range(3, 6))

    def test_interrupted_process_sweep_saves_items_as_they_finish(self, tmp_path):
        """A checkpointed process sweep saves each item as its worker
        finishes it: interrupted mid-sweep, it loses at most the items
        that were in transit, one per worker.  The sweep runs in a child
        interpreter; one of its items interrupts it with SIGINT."""
        script = tmp_path / "interrupted_sweep.py"
        log = tmp_path / "finished"
        ck = tmp_path / "ck.jsonl"
        script.write_text(
            "import os, signal, sys, time\n"
            "from repro.perf import sweep_map\n"
            "\n"
            "def task(x):\n"
            "    if x == 29:\n"
            "        os.kill(os.getppid(), signal.SIGINT)\n"
            "        time.sleep(30.0)\n"
            "    time.sleep(0.02)\n"
            "    with open(sys.argv[1], 'a') as fh:\n"
            "        fh.write(f'{x}\\n')\n"
            "    return x * x\n"
            "\n"
            "if __name__ == '__main__':\n"
            "    try:\n"
            "        sweep_map(task, list(range(48)), workers=2,\n"
            "                  backend='process', checkpoint=sys.argv[2],\n"
            "                  checkpoint_tag='interrupted')\n"
            "    except KeyboardInterrupt:\n"
            "        sys.exit(0)\n"
            "    sys.exit(1)\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        for var in (TIMEOUT_ENV, RETRIES_ENV, CHECKPOINT_ENV):
            env.pop(var, None)
        proc = subprocess.run(
            [sys.executable, str(script), str(log), str(ck)],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, (proc.returncode, proc.stdout, proc.stderr)

        stats = {}
        out = sweep_map(
            _square, list(range(48)), backend="serial", checkpoint=str(ck),
            checkpoint_tag="interrupted", stats=stats,
        )
        assert out == [x * x for x in range(48)]
        restored = {r["index"] for r in stats["items"] if r["status"] == "cached"}
        finished = {int(x) for x in log.read_text().split()}
        assert 29 not in restored
        assert restored <= finished
        assert len(finished - restored) <= 2

    def test_checkpoint_keyed_by_fn_fingerprint(self, tmp_path):
        ck = str(tmp_path / "ck.jsonl")
        sweep_map(_square, [1, 2, 3], checkpoint=ck)
        stats = {}
        out = sweep_map(_cube, [1, 2, 3], checkpoint=ck, stats=stats)
        assert out == [1, 8, 27]  # foreign-fingerprint entries ignored
        assert stats["cached"] == 0

    def test_checkpoint_tag_overrides_fingerprint(self, tmp_path):
        ck = str(tmp_path / "ck.jsonl")
        sweep_map(_square, [1, 2, 3], checkpoint=ck, checkpoint_tag="shared")
        stats = {}
        out = sweep_map(_cube, [1, 2, 3], checkpoint=ck, checkpoint_tag="shared", stats=stats)
        assert out == [1, 4, 9]  # restored under the shared tag, not re-run
        assert stats["cached"] == 3

    def test_checkpoint_works_under_process_backend(self, tmp_path):
        ck = str(tmp_path / "ck.jsonl")
        items = [0.5, 1.5, 2.5, 3.5]
        first = sweep_map(_spectrum, items, workers=2, backend="process", checkpoint=ck)
        stats = {}
        second = sweep_map(
            _spectrum, items, workers=2, backend="process", checkpoint=ck, stats=stats
        )
        assert stats["cached"] == len(items)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)

    def test_corrupt_checkpoint_lines_skipped(self, tmp_path):
        ck = tmp_path / "ck.jsonl"
        sweep_map(_square, [1, 2, 3], checkpoint=str(ck))
        with open(ck, "a") as fh:
            fh.write("not json\n")
            fh.write('{"fp": "feedface", "key": "x"}\n')
        stats = {}
        out = sweep_map(_square, [1, 2, 3], checkpoint=str(ck), stats=stats)
        assert out == [1, 4, 9]
        assert stats["cached"] == 3


class TestCheckpointAuth:
    def test_hmac_rejects_tampered_lines(self, monkeypatch, tmp_path):
        """With a key set, a tampered result blob fails its MAC and is
        recomputed instead of being unpickled and trusted."""
        monkeypatch.setenv(CHECKPOINT_KEY_ENV, "sweep-secret")
        marker = str(tmp_path / "calls")
        ck = tmp_path / "ck.jsonl"
        fn = _Counted(marker)
        sweep_map(fn, [1, 2, 3], checkpoint=str(ck))
        assert _calls(marker) == 3
        lines = ck.read_text().splitlines()
        assert all('"mac"' in ln for ln in lines)
        rec = json.loads(lines[0])
        rec["result"] = base64.b64encode(pickle.dumps(999)).decode("ascii")
        lines[0] = json.dumps(rec)
        ck.write_text("\n".join(lines) + "\n")
        stats = {}
        out = sweep_map(fn, [1, 2, 3], checkpoint=str(ck), stats=stats)
        assert out == [1, 4, 9]  # tampered entry recomputed, not restored
        assert stats["cached"] == 2
        assert _calls(marker) == 4

    def test_unauthenticated_lines_ignored_once_key_set(
        self, monkeypatch, tmp_path
    ):
        """Lines saved without a key are never unpickled under a key —
        restore only trusts blobs it can authenticate."""
        ck = tmp_path / "ck.jsonl"
        sweep_map(_square, [1, 2, 3], checkpoint=str(ck))
        monkeypatch.setenv(CHECKPOINT_KEY_ENV, "sweep-secret")
        stats = {}
        out = sweep_map(_square, [1, 2, 3], checkpoint=str(ck), stats=stats)
        assert out == [1, 4, 9]
        assert stats["cached"] == 0


# ---------------------------------------------------------------------------
# hard-kill backstop: queue wait must not count against the deadline
# ---------------------------------------------------------------------------
class TestHardKillBackstop:
    def test_queue_wait_does_not_count_against_deadline(self):
        """Many short items behind few workers: items queued behind
        busy workers must not be hard-killed when the *sweep* outlasts
        the per-item allowance (regression: the backstop used to time
        from submission, and submission drained the whole todo list)."""
        items = list(range(16))  # 16 x 0.3 s / 2 workers >> 2*0.5 + 1 s
        stats = {}
        out = sweep_map(
            _nap, items, workers=2, backend="process", timeout=0.5, stats=stats
        )
        assert out == items
        assert stats["timeouts"] == 0
        assert stats["pool_replacements"] == 0
        assert stats["backend"] == "process"
        ledger = {r["index"]: r for r in stats["items"]}
        assert all(ledger[i]["status"] == "ok" for i in items)


# ---------------------------------------------------------------------------
# pool replacement budget: runaway breakage degrades instead of spinning
# ---------------------------------------------------------------------------
class TestPoolReplacementBudget:
    def test_runaway_pool_breakage_degrades_to_serial(self, monkeypatch):
        """When every submission breaks the pool and leaves no
        breadcrumbs (e.g. a crashing worker initializer), the engine
        must stop replacing pools after its budget and finish the sweep
        on the serial drain rather than spin forever."""
        from repro.perf import sweep as sweep_mod

        def broken_submit(self, chunk):
            self._charge(chunk)
            raise BrokenProcessPool("injected: submit always breaks")

        monkeypatch.setattr(sweep_mod._ResilientSweep, "_submit", broken_submit)
        items = [1, 2, 3]
        stats = {}
        out = sweep_map(
            _square, items, workers=2, backend="process", timeout=5.0, stats=stats
        )
        assert out == [1, 4, 9]
        assert stats["backend"] == "serial"
        assert stats["backend_requested"] == "process"
        assert stats["pool_replacements"] == max(4, 2 * len(items))

    @pytest.mark.parametrize("backend", ["process", "thread"])
    def test_refused_worker_drains_serially(self, monkeypatch, backend):
        """A platform that refuses to start a worker (process or thread
        limits) is not a crash: the sweep finishes serially, without
        replacing pools or charging the refused attempts."""
        from repro.perf import sweep as sweep_mod

        def refused_submit(self, chunk):
            self._charge(chunk)
            raise RuntimeError("injected: can't start new thread")

        monkeypatch.setattr(sweep_mod._ResilientSweep, "_submit", refused_submit)
        stats = {}
        out = sweep_map(_square, [1, 2, 3], workers=2, backend=backend, stats=stats)
        assert out == [1, 4, 9]
        assert stats["backend"] == "serial"
        assert stats["backend_requested"] == backend
        assert stats["attempted"] == 3
        assert "pool_replacements" not in stats


# ---------------------------------------------------------------------------
# unpicklable worker exceptions: retry_on stays backend-independent
# ---------------------------------------------------------------------------
class TestRemoteErrors:
    def test_retry_on_matches_unpicklable_worker_exception(self, tmp_path):
        """An exception that cannot pickle back to the parent must
        still match ``retry_on=(ItsType,)`` on the process backend
        (regression: it was rewrapped as a bare RuntimeError, silently
        disabling retry only on this backend)."""
        fn = _FlakyUnpicklable(str(tmp_path / "seen"))
        stats = {}
        out = sweep_map(
            fn,
            [1, 2, 3],
            workers=2,
            backend="process",
            retries=1,
            retry_on=(_UnpicklableError,),
            stats=stats,
        )
        assert out == [10, 20, 30]
        assert stats["retried"] == 3
        ledger = {r["index"]: r for r in stats["items"]}
        assert all(ledger[i]["attempts"] == 2 for i in range(3))

    def test_remote_error_matches_original_bases_not_wrapper(self, tmp_path):
        """Matching is by the original type's MRO: a foreign retry_on
        type does not match (even though the wrapper is a
        RuntimeError), and the surfaced error names the original."""
        fn = _FlakyUnpicklable(str(tmp_path / "seen"))
        with pytest.raises(SweepRemoteError) as exc_info:
            sweep_map(
                fn,
                [1, 2],
                workers=2,
                backend="process",
                retries=2,
                retry_on=(ValueError,),
            )
        assert exc_info.value.original.endswith("_UnpicklableError")
        assert any(n.endswith("_UnpicklableError") for n in exc_info.value.mro)
        assert "builtins.Exception" in exc_info.value.mro


# ---------------------------------------------------------------------------
# fallbacks under fault tolerance (process → thread, mixed outcomes)
# ---------------------------------------------------------------------------
class TestFaultModeFallbacks:
    def test_unpicklable_fn_falls_back_with_ledger(self):
        captured = 2.0
        stats = {}
        out = sweep_map(
            lambda x: x * captured if x != 3 else 1 / 0,
            [1, 2, 3, 4],
            workers=2,
            backend="process",
            on_item_failure="skip",
            stats=stats,
        )
        assert out == [2.0, 4.0, None, 8.0]
        assert stats["backend"] == "thread"
        assert stats["backend_requested"] == "process"
        ledger = {r["index"]: r for r in stats["items"]}
        assert ledger[2]["status"] == "skipped"
        assert "ZeroDivisionError" in ledger[2]["failure_cause"]

    def test_thread_fallback_preserves_exception_identity(self):
        captured = []  # makes the lambda unpicklable via closure

        def fn(x):
            captured.append(x)
            if x == 2:
                raise ZeroDivisionError("identity check")
            return x

        with pytest.raises(ZeroDivisionError, match="identity check"):
            sweep_map(fn, [1, 2, 3], workers=2, backend="process", timeout=60.0)

    def test_mixed_outcomes_keep_item_order(self, tmp_path):
        chaos = SweepChaos(
            {1: ChaosSpec(kind="error"), 3: ChaosSpec(kind="error", times=99)},
            tmp_path,
        )
        stats = {}
        with chaos_sweeps(chaos):
            out = sweep_map(
                _square,
                [1, 2, 3, 4, 5],
                workers=2,
                backend="thread",
                on_item_failure="skip",
                retries=1,
                stats=stats,
            )
        assert out == [1, 4, 9, None, 25]  # positional: order survives chaos
        assert stats["retried"] >= 1
        assert stats["quarantined"] == 1


# ---------------------------------------------------------------------------
# interrupt handling: no orphaned workers
# ---------------------------------------------------------------------------
class TestInterrupt:
    @pytest.mark.parametrize("fault_mode", [False, True])
    def test_keyboard_interrupt_leaves_no_orphans(self, fault_mode):
        def raise_interrupt(signum, frame):
            raise KeyboardInterrupt

        old = signal.signal(signal.SIGALRM, raise_interrupt)
        signal.setitimer(signal.ITIMER_REAL, 1.5)
        try:
            kwargs = {"timeout": 60.0} if fault_mode else {}
            with pytest.raises(KeyboardInterrupt):
                sweep_map(
                    _sleepy,
                    list(range(4)),
                    workers=2,
                    backend="process",
                    chunksize=1,
                    **kwargs,
                )
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, old)
        # the pool must be torn down promptly — 30 s sleepers terminated,
        # not waited out, and no worker processes left behind
        deadline = time.monotonic() + 8.0
        while time.monotonic() < deadline:
            if not multiprocessing.active_children():
                break
            time.sleep(0.1)
        assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------------
# trace integration: per-item samples roll up through summarize
# ---------------------------------------------------------------------------
class TestTraceRollup:
    def test_summarize_rolls_up_fault_sweep(self, tmp_path):
        from repro.trace import disable, enable
        from repro.trace.summarize import event_table, load_trace, span_table, summarize

        path = str(tmp_path / "trace.jsonl")
        enable(path)
        try:
            chaos = SweepChaos({1: ChaosSpec(kind="error")}, tmp_path / "c")
            with chaos_sweeps(chaos):
                out = sweep_map(
                    _square,
                    [1, 2, 3, 4],
                    workers=2,
                    backend="process",
                    on_item_failure="retry",
                )
        finally:
            disable()
        assert out == [1, 4, 9, 16]
        records = load_trace(path)
        rows = {r["name"]: r for r in span_table(records)}
        # worker-side sweep.task samples were absorbed into the parent
        # trace, so the p50/p95 rollup covers every item execution
        assert rows["sweep.task"]["count"] >= 4
        assert rows["sweep.task"]["p95"] >= rows["sweep.task"]["p50"] >= 0.0
        events = dict(event_table(records))
        assert events.get("sweep.retry", 0) >= 1
        buf = io.StringIO()
        summarize(path, out=buf)
        assert "sweep.task" in buf.getvalue()
        assert "sweep.retry" in buf.getvalue()


# ---------------------------------------------------------------------------
# chaos driven through every sweep consumer
# ---------------------------------------------------------------------------
class TestConsumersUnderChaos:
    """Each consumer recovers from an injected transient on its first
    sweep item and reproduces the fault-free result exactly."""

    RETRY = {"on_item_failure": "retry"}

    def test_ac_analysis(self, rc_lowpass, tmp_path):
        freqs = [1e3, 1e5, 1e7]
        clean = ac_analysis(rc_lowpass, "V1", freqs)
        stats = {}
        chaos = SweepChaos({0: ChaosSpec(kind="error")}, tmp_path)
        with chaos_sweeps(chaos):
            chaotic = ac_analysis(
                rc_lowpass,
                "V1",
                freqs,
                sweep_options={"on_item_failure": "retry", "stats": stats},
            )
        assert chaos.attempts(0) == 2
        assert stats["retried"] == 1
        np.testing.assert_array_equal(clean.X, chaotic.X)

    def test_hb_sweep(self, tmp_path):
        from repro.hb.hb_core import hb_sweep
        from repro.netlist import Circuit, Sine

        ckt = Circuit("hb")
        ckt.vsource("V1", "in", "0", Sine(offset=0.2, amplitude=0.4, freq=1e6))
        ckt.resistor("R1", "in", "out", 1e3)
        ckt.capacitor("C1", "out", "0", 1e-12)
        ckt.diode("D1", "out", "0")
        system = ckt.compile()
        points = [{"harmonics": [2]}, {"harmonics": [3]}]
        clean = hb_sweep(system, points, freqs=[1e6])
        chaos = SweepChaos({0: ChaosSpec(kind="error")}, tmp_path)
        with chaos_sweeps(chaos):
            chaotic = hb_sweep(
                system, points, sweep_options=dict(self.RETRY), freqs=[1e6]
            )
        assert chaos.attempts(0) == 2
        for a, b in zip(clean, chaotic):
            np.testing.assert_array_equal(a.solution.x, b.solution.x)

    def test_monte_carlo(self, tmp_path):
        from repro.phasenoise import VanDerPol
        from repro.phasenoise.montecarlo import simulate_sde_ensemble

        vdp = VanDerPol(mu=0.2, sigma=0.05)
        x0 = np.array([2.0, 0.0])
        _, clean = simulate_sde_ensemble(vdp, x0, 5.0, 100, 64, seed=7)
        chaos = SweepChaos({0: ChaosSpec(kind="error")}, tmp_path)
        with chaos_sweeps(chaos):
            _, chaotic = simulate_sde_ensemble(
                vdp, x0, 5.0, 100, 64, seed=7, sweep_options=dict(self.RETRY)
            )
        assert chaos.attempts(0) == 2
        np.testing.assert_array_equal(clean, chaotic)

    def test_rom_transfer(self, tmp_path):
        from repro.netlist import Circuit
        from repro.rom import port_descriptor

        ckt = Circuit("rom")
        ckt.vsource("P1", "p", "0", 0.0)
        ckt.resistor("R1", "p", "a", 50.0)
        ckt.capacitor("C1", "a", "0", 1e-12)
        ckt.inductor("L1", "a", "0", 1e-9)
        desc = port_descriptor(ckt.compile(), ["P1"])
        s_vals = 2j * np.pi * np.logspace(6, 9, 4)
        clean = desc.transfer(s_vals)
        chaos = SweepChaos({0: ChaosSpec(kind="error")}, tmp_path)
        with chaos_sweeps(chaos):
            chaotic = desc.transfer(s_vals, sweep_options=dict(self.RETRY))
        assert chaos.attempts(0) == 2
        np.testing.assert_array_equal(clean, chaotic)

    def test_em_fast_extraction(self, tmp_path):
        from repro.em import conductor_bus
        from repro.em.mom import capacitance_matrix_fast

        panels = conductor_bus(2, 2e-6, 60e-6, 6e-6, 1, 8)
        clean = capacitance_matrix_fast(panels, leaf_size=4)
        chaos = SweepChaos({0: ChaosSpec(kind="error")}, tmp_path)
        with chaos_sweeps(chaos):
            chaotic = capacitance_matrix_fast(
                panels, leaf_size=4, sweep_options=dict(self.RETRY)
            )
        assert chaos.attempts(0) >= 2  # faulted once, then clean re-runs
        np.testing.assert_array_equal(clean.cap_matrix, chaotic.cap_matrix)


# ---------------------------------------------------------------------------
# retry_on across multi-level custom exception hierarchies
# ---------------------------------------------------------------------------
class _FaultBase(Exception):
    pass


class _FaultMid(_FaultBase):
    pass


class _FaultLeafUnpicklable(_FaultMid):
    """Grandchild of _FaultBase that cannot pickle back to the parent
    (second required argument missing from ``args``)."""

    def __init__(self, detail, extra):
        super().__init__(detail)
        self.extra = extra


class _DiamondLeft(_FaultBase):
    pass


class _DiamondRight(_FaultBase):
    pass


class _DiamondLeafUnpicklable(_DiamondLeft, _DiamondRight):
    """Diamond MRO: matching must see *both* parent chains."""

    def __init__(self, detail, extra):
        super().__init__(detail)
        self.extra = extra


class _SiblingFault(_FaultBase):
    pass


class _RaiseOnce:
    """Raises ``exc_type`` on each item's first execution (file-marker
    attempt counter, so it holds across worker processes)."""

    def __init__(self, marker, exc_type):
        self.marker = marker
        self.exc_type = exc_type

    def __call__(self, x):
        seen = f"{self.marker}.{x}"
        if not os.path.exists(seen):
            open(seen, "w").close()
            raise self.exc_type(f"fault at {x}", x)
        return x + 100


class TestRemoteErrorHierarchies:
    def test_grandparent_match_across_process_boundary(self, tmp_path):
        """``retry_on=(GrandparentType,)`` must match a grandchild
        exception even when it crosses the process boundary wrapped as
        SweepRemoteError — the whole MRO travels, not just the leaf."""
        fn = _RaiseOnce(str(tmp_path / "seen"), _FaultLeafUnpicklable)
        stats = {}
        out = sweep_map(
            fn, [1, 2, 3], workers=2, backend="process",
            retries=1, retry_on=(_FaultBase,), stats=stats,
        )
        assert out == [101, 102, 103]
        assert stats["retried"] == 3

    def test_diamond_mro_second_branch_matches(self, tmp_path):
        """A diamond-inheritance leaf matches ``retry_on`` naming either
        parent; the second branch is only reachable via the full MRO."""
        fn = _RaiseOnce(str(tmp_path / "seen"), _DiamondLeafUnpicklable)
        stats = {}
        out = sweep_map(
            fn, [1, 2], workers=2, backend="process",
            retries=1, retry_on=(_DiamondRight,), stats=stats,
        )
        assert out == [101, 102]
        assert stats["retried"] == 2

    def test_sibling_type_does_not_match(self, tmp_path):
        """A sibling under the same base is not an ancestor: no retry."""
        fn = _RaiseOnce(str(tmp_path / "seen"), _FaultLeafUnpicklable)
        with pytest.raises(SweepRemoteError) as exc_info:
            sweep_map(
                fn, [1, 2], workers=2, backend="process",
                retries=2, retry_on=(_SiblingFault,),
            )
        assert exc_info.value.original.endswith("_FaultLeafUnpicklable")

    def test_serial_backend_agrees_with_remote_matching(self, tmp_path):
        """Same hierarchy without a process boundary: plain isinstance
        matching reaches the same retry decision."""
        fn = _RaiseOnce(str(tmp_path / "seen"), _FaultLeafUnpicklable)
        stats = {}
        out = sweep_map(fn, [1, 2], backend="serial", retries=1,
                        retry_on=(_FaultBase,), stats=stats)
        assert out == [101, 102]
        assert stats["retried"] == 2


# ---------------------------------------------------------------------------
# checkpoint resume after a SIGKILL mid-write (torn final line)
# ---------------------------------------------------------------------------
def _run_sweep_to_death(marker, ck, chaos_dir):
    """Child-process entry: serial checkpointed sweep whose chaos
    schedule ``os._exit``'s the process at item 3 — a SIGKILL stand-in
    that skips every cleanup path, exactly like the real signal."""
    chaos = SweepChaos({3: ChaosSpec(kind="crash", times=1)}, chaos_dir)
    with chaos_sweeps(chaos):
        sweep_map(_Counted(marker), list(range(6)), backend="serial",
                  checkpoint=ck)


class TestCheckpointTornTail:
    def test_resume_after_sigkill_mid_write_discards_torn_line(self, tmp_path):
        marker = str(tmp_path / "calls")
        ck = str(tmp_path / "ck.jsonl")
        proc = multiprocessing.get_context().Process(
            target=_run_sweep_to_death,
            args=(marker, ck, str(tmp_path / "chaos")),
        )
        proc.start()
        proc.join(60)
        assert proc.exitcode == 87  # died by chaos crash, not cleanly
        assert _calls(marker) == 3  # items 0..2 ran before the death
        # model the kill landing mid-``write``: the final checkpoint
        # line is torn in half
        assert tear_final_line(ck) > 0
        stats = {}
        out = sweep_map(_Counted(marker), list(range(6)), backend="serial",
                        checkpoint=ck, stats=stats)
        assert out == [x * x for x in range(6)]
        # torn record (item 2) discarded and recomputed with 3..5
        assert _calls(marker) == 7
        assert stats["cached"] == 2
        assert stats["checkpoint"]["restored"] == 2


# ---------------------------------------------------------------------------
# size-triggered checkpoint compaction
# ---------------------------------------------------------------------------
class TestCheckpointCompaction:
    def _bloat(self, ck, copies):
        """Append ``copies`` superseded generations of every record."""
        with open(ck) as fh:
            generation = fh.read()
        with open(ck, "a") as fh:
            for _ in range(copies):
                fh.write(generation)

    def test_oversize_checkpoint_compacts_on_open(self, monkeypatch, tmp_path):
        ck = tmp_path / "ck.jsonl"
        sweep_map(_square, [1, 2, 3], checkpoint=str(ck))
        self._bloat(ck, 200)
        big = ck.stat().st_size
        monkeypatch.setenv(CHECKPOINT_COMPACT_ENV, "4096")
        stats = {}
        out = sweep_map(_square, [1, 2, 3], checkpoint=str(ck), stats=stats)
        assert out == [1, 4, 9]
        assert stats["cached"] == 3  # every live record survived
        assert ck.stat().st_size < big
        comp = stats["checkpoint"]["compacted"]
        assert comp["before_bytes"] == big
        assert comp["after_bytes"] == ck.stat().st_size
        assert comp["dropped_lines"] == 3 * 200

    def test_compaction_preserves_foreign_fingerprints(
        self, monkeypatch, tmp_path
    ):
        """Compacting under one function's sweep must not drop another
        function's records from a shared checkpoint file."""
        ck = tmp_path / "ck.jsonl"
        sweep_map(_square, [1, 2, 3], checkpoint=str(ck))
        sweep_map(_cube, [1, 2, 3], checkpoint=str(ck))
        self._bloat(ck, 100)
        monkeypatch.setenv(CHECKPOINT_COMPACT_ENV, "1024")
        stats = {}
        sweep_map(_square, [1, 2, 3], checkpoint=str(ck), stats=stats)
        assert stats["cached"] == 3
        assert "compacted" in stats["checkpoint"]
        stats2 = {}
        out = sweep_map(_cube, [1, 2, 3], checkpoint=str(ck), stats=stats2)
        assert out == [1, 8, 27]
        assert stats2["cached"] == 3  # cube records survived verbatim

    def test_zero_disables_compaction(self, monkeypatch, tmp_path):
        ck = tmp_path / "ck.jsonl"
        sweep_map(_square, [1, 2, 3], checkpoint=str(ck))
        self._bloat(ck, 50)
        size = ck.stat().st_size
        monkeypatch.setenv(CHECKPOINT_COMPACT_ENV, "0")
        stats = {}
        sweep_map(_square, [1, 2, 3], checkpoint=str(ck), stats=stats)
        assert stats["cached"] == 3
        assert ck.stat().st_size == size
        assert "compacted" not in stats["checkpoint"]

    def test_budget_resolution(self, monkeypatch):
        assert resolve_checkpoint_compact(8192) == 8192
        assert resolve_checkpoint_compact(0) == 0
        monkeypatch.setenv(CHECKPOINT_COMPACT_ENV, "1e6")
        assert resolve_checkpoint_compact() == 10 ** 6
        with pytest.raises(ValueError):
            resolve_checkpoint_compact(-1)
        monkeypatch.setenv(CHECKPOINT_COMPACT_ENV, "not-a-size")
        with pytest.raises(ValueError):
            resolve_checkpoint_compact()


# ---------------------------------------------------------------------------
# bounded per-item ledger with exact rollup counters
# ---------------------------------------------------------------------------
class TestItemLedgerCap:
    def test_cap_keeps_failures_and_exact_counts(self):
        items = [2] * 5 + [1] * 45  # _boom raises at 2
        stats = {}
        out = sweep_map(_boom, items, backend="serial",
                        on_item_failure="skip", stats=stats,
                        max_item_records=10)
        assert out[:5] == [None] * 5 and out[5:] == [1] * 45
        assert len(stats["items"]) == 10
        kept = [r["status"] for r in stats["items"]]
        assert kept.count("skipped") == 5  # failures always retained
        assert kept.count("ok") == 5
        assert stats["status_counts"] == {"skipped": 5, "ok": 45}
        assert stats["items_truncated"] == 40
        indices = [r["index"] for r in stats["items"]]
        assert indices == sorted(indices)  # ledger stays in item order

    def test_env_cap(self, monkeypatch):
        monkeypatch.setenv(MAX_ITEM_RECORDS_ENV, "4")
        stats = {}
        out = sweep_map(_square, list(range(9)), backend="serial",
                        retries=1, stats=stats)
        assert out == [x * x for x in range(9)]
        assert len(stats["items"]) == 4
        assert stats["items_truncated"] == 5
        assert stats["status_counts"] == {"ok": 9}

    def test_zero_means_unlimited(self):
        stats = {}
        sweep_map(_square, list(range(9)), backend="serial", retries=1,
                  stats=stats, max_item_records=0)
        assert len(stats["items"]) == 9
        assert stats["items_truncated"] == 0

    def test_resolver_validation(self):
        assert resolve_max_item_records(7) == 7
        assert resolve_max_item_records(0) == 0
        with pytest.raises(ValueError):
            resolve_max_item_records(-3)
