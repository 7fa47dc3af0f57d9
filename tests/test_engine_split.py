"""Large ``route_many`` calls split over a helper process.

An untraced call of >= 2 batches and at least ``_SPLIT_MIN_PACKETS``
packets, on a host with 2 CPUs, routes about half of its batches' work
in one forked helper process and the rest in the caller.  These tests
pin that the split changes nothing observable: results, error messages,
and what happens when the helper dies, is abandoned mid-call, or its
parent forks, exits or is killed.
"""

import ctypes
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import obs
from repro.hmos import HMOS
from repro.mesh import Mesh, PacketBatch, SteppingCore, SynchronousEngine
from repro.mesh import engine
from repro.protocol import AccessProtocol
from tests.test_mesh_engine import _assert_results_equal, _random_batches

TWO_CPUS = len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) >= 2
needs_helper = pytest.mark.skipif(not TWO_CPUS, reason="the split needs 2 CPUs")


def _large_batches(seed, n=1024):
    """25,000 packets in five batches: one empty, one with packets that
    start at their destination, and a hot spot."""
    rng = np.random.default_rng(seed)
    batches = _random_batches(rng, n, (12000, 0, 8000, 3000))
    src, dst = batches[2]
    dst[:500] = src[:500]
    batches.append((rng.integers(0, n, 2000), np.full(2000, n // 2)))
    assert sum(len(s) for s, _ in batches) >= engine._SPLIT_MIN_PACKETS
    return batches


def _route(eng, batches, **kwargs):
    return eng.route_many([PacketBatch(s, d) for s, d in batches], **kwargs)


def _running(pid) -> bool:
    """Whether ``pid`` is a live process (a zombie has exited)."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def _reap(pid, seconds):
    """Wait up to ``seconds`` for the child ``pid`` to exit; its status."""
    deadline = time.monotonic() + seconds
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            return status
        assert time.monotonic() < deadline, f"process {pid} still running"
        time.sleep(0.05)


@pytest.fixture()
def own_helper(monkeypatch):
    """The test's own helper, started by its first large call and
    closed afterwards; the process's helper is restored."""
    monkeypatch.setattr(engine, "_helper", None)
    yield
    engine._close_helper()


@pytest.mark.parametrize("ports", ["multi", "single"])
@pytest.mark.parametrize("seed", [3, 8])
def test_split_matches_in_process_core(own_helper, ports, seed):
    mesh = Mesh(32)
    batches = _large_batches(seed)
    eng = SynchronousEngine(mesh, ports=ports)
    for _ in range(2):  # the second call reuses the helper's core
        ref = SteppingCore(mesh, ports).run(batches)
        _assert_results_equal(ref, _route(eng, batches))
    assert bool(engine._helper) == TWO_CPUS


@needs_helper
def test_helper_rebuilds_its_core_for_another_mesh(own_helper):
    for side, ports in ((32, "multi"), (16, "single"), (32, "multi")):
        mesh = Mesh(side)
        batches = _large_batches(side, mesh.n)
        got = _route(SynchronousEngine(mesh, ports=ports), batches)
        _assert_results_equal(SteppingCore(mesh, ports).run(batches), got)
    assert engine._helper


class TestErrors:
    """Each side's errors are the in-process ones, and a failed call
    leaves the helper usable."""

    @needs_helper
    def test_livelock_on_either_side(self, own_helper):
        mesh = Mesh(32)
        batches = _large_batches(5)
        eng = SynchronousEngine(mesh)
        caps = []
        for b, (src, _) in enumerate(batches):
            if len(src):  # one batch at a time: caller and helper sides
                caps.append([10**6] * len(batches))
                caps[-1][b] = 3 + b
        for max_steps in caps + [4]:
            with pytest.raises(RuntimeError) as expected:
                SteppingCore(mesh).run(batches, max_steps=max_steps)
            with pytest.raises(RuntimeError) as got:
                _route(eng, batches, max_steps=max_steps)
            assert str(got.value) == str(expected.value)
            _assert_results_equal(SteppingCore(mesh).run(batches), _route(eng, batches))
        assert engine._helper

    def test_value_errors(self, own_helper):
        mesh = Mesh(32)
        batches = _large_batches(6)
        eng = SynchronousEngine(mesh)
        for max_steps in ([5, 5], 2**62):
            with pytest.raises(ValueError) as expected:
                SteppingCore(mesh).run(batches, max_steps=max_steps)
            with pytest.raises(ValueError) as got:
                _route(eng, batches, max_steps=max_steps)
            assert str(got.value) == str(expected.value)


class TestHelperLoss:
    """A dead or abandoned helper is closed for good; calls route
    in-process from then on."""

    @needs_helper
    def test_killed_helper(self, own_helper):
        mesh = Mesh(32)
        batches = _large_batches(7)
        eng = SynchronousEngine(mesh)
        _route(eng, batches)
        pid = engine._helper[0]
        os.kill(pid, signal.SIGKILL)
        out = []
        call = threading.Thread(target=lambda: out.append(_route(eng, batches)))
        call.start()
        call.join(60)
        assert not call.is_alive(), "route_many hung on a dead helper"
        _assert_results_equal(SteppingCore(mesh).run(batches), out[0])
        assert engine._helper is False and not _running(pid)
        _assert_results_equal(SteppingCore(mesh).run(batches), _route(eng, batches))
        assert engine._helper is False

    @needs_helper
    def test_caller_leaving_mid_call_closes_the_helper(self, own_helper, monkeypatch):
        class Interrupt(BaseException):
            pass

        def interrupted(*args, **kwargs):
            raise Interrupt

        mesh = Mesh(32)
        batches = _large_batches(9)
        eng = SynchronousEngine(mesh)
        _route(eng, batches)
        pid = engine._helper[0]
        monkeypatch.setattr(eng._core, "run", interrupted)
        with pytest.raises(Interrupt):
            _route(eng, batches)
        monkeypatch.delattr(eng._core, "run")
        assert engine._helper is False and not _running(pid)
        _assert_results_equal(SteppingCore(mesh).run(batches), _route(eng, batches))

    def test_busy_lock_routes_in_process(self, own_helper):
        mesh = Mesh(32)
        batches = _large_batches(10)
        with engine._helper_lock:
            got = _route(SynchronousEngine(mesh), batches)
        _assert_results_equal(SteppingCore(mesh).run(batches), got)
        assert engine._helper is None


@needs_helper
def test_forked_child_and_parent_both_route(own_helper):
    mesh = Mesh(32)
    batches = _large_batches(11)
    ref = SteppingCore(mesh).run(batches)
    eng = SynchronousEngine(mesh)
    _route(eng, batches)
    parent_helper = engine._helper
    pid = os.fork()
    if pid == 0:  # the child: forgets the parent's helper, starts its own
        code = 1
        try:
            forgot = engine._helper is None
            _assert_results_equal(ref, _route(eng, batches))
            own = engine._helper and engine._helper[0] != parent_helper[0]
            engine._close_helper()
            code = 0 if forgot and own else 2
        finally:
            os._exit(code)
    assert os.waitstatus_to_exitcode(_reap(pid, 60)) == 0
    assert engine._helper is parent_helper and _running(parent_helper[0])
    _assert_results_equal(ref, _route(eng, batches))
    assert engine._helper is parent_helper


_LARGE_CALL = textwrap.dedent(
    """
    import sys
    import numpy as np
    from repro.mesh import Mesh, PacketBatch, SynchronousEngine, engine

    rng = np.random.default_rng(0)
    batches = [
        PacketBatch(rng.integers(0, 1024, 13000), rng.integers(0, 1024, 13000))
        for _ in range(2)
    ]
    SynchronousEngine(Mesh(32)).route_many(batches)
    print(engine._helper[0], flush=True)
    """
)


def _python(code, **kwargs):
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
    return [sys.executable, "-c", code], dict(env=env, text=True, **kwargs)


@needs_helper
def test_helper_exits_with_its_parent():
    """The parent closes and reaps the helper at exit, so a caller
    waiting for the parent's output is not held up by the helper."""
    args, kwargs = _python(_LARGE_CALL, capture_output=True, timeout=60)
    proc = subprocess.run(args, **kwargs)
    assert proc.returncode == 0, proc.stderr
    assert not _running(int(proc.stdout))


@needs_helper
@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="prctl")
def test_helper_of_a_killed_parent_exits():
    """The helper sees EOF once its parent is gone, even after SIGKILL.
    This process becomes the orphaned helper's subreaper while the test
    runs, so it can reap it."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    libc.prctl.restype = ctypes.c_int
    PR_SET_CHILD_SUBREAPER = 36
    assert libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    try:
        args, kwargs = _python(
            _LARGE_CALL + "sys.stdin.read()\n",
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        with subprocess.Popen(args, **kwargs) as proc:
            pid = int(proc.stdout.readline())
            assert _running(pid)
            proc.kill()
        _reap(pid, 10)
    finally:
        libc.prctl(PR_SET_CHILD_SUBREAPER, 0, 0, 0, 0)


def test_small_traced_and_single_cpu_calls_start_no_helper(monkeypatch):
    monkeypatch.setattr(engine, "_helper", None)
    scheme = HMOS(n=64, alpha=1.5, q=3, k=2)
    proto = AccessProtocol(scheme, engine="cycle")
    proto.read(np.arange(64, dtype=np.int64))
    mesh = Mesh(32)
    batches = _large_batches(12)
    ref = SteppingCore(mesh).run(batches)
    with obs.capture():
        _assert_results_equal(ref, _route(SynchronousEngine(mesh), batches))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    _assert_results_equal(ref, _route(SynchronousEngine(mesh), batches))
    assert engine._helper is None
