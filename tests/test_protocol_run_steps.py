"""The batched step executor: ``AccessProtocol.run_steps`` and the
backend/machine layers above it.

The executor's contract is *bit-identical replay*: a request stream run
through ``run_steps`` must produce exactly what the same steps issued
one by one produce — same values, same culling selections, same stage
metrics, same timestamps — with faults, error recording, and the
machine's bulk helpers layered on top.
"""

import numpy as np
import pytest

from repro.hmos.faults import FaultInjector
from repro.hmos.scheme import HMOS
from repro.pram.backends import IdealBackend, MeshBackend
from repro.pram.machine import PRAMMachine
from repro.protocol.access import AccessProtocol, StepError, StepRequest

CFG = dict(n=64, alpha=1.5, q=3, k=2)


def _scheme():
    return HMOS(CFG["n"], CFG["alpha"], CFG["q"], CFG["k"])


def _mixed_stream(num_variables, rng, steps=5, size=20):
    out = []
    for i in range(steps):
        op = ("read", "write", "mixed")[i % 3]
        variables = rng.choice(num_variables, size=size, replace=False)
        values = is_write = None
        if op in ("write", "mixed"):
            values = rng.integers(0, 100, size=size)
        if op == "mixed":
            is_write = rng.integers(0, 2, size=size).astype(bool)
        out.append(
            StepRequest(op=op, variables=variables, values=values, is_write=is_write)
        )
    return out


def _assert_results_equal(a, b):
    assert a.op == b.op
    np.testing.assert_array_equal(a.culling.selected, b.culling.selected)
    assert a.culling.charged_steps == b.culling.charged_steps
    assert a.stages == b.stages
    assert a.return_steps == b.return_steps
    if a.values is None:
        assert b.values is None
    else:
        np.testing.assert_array_equal(a.values, b.values)


@pytest.mark.parametrize("engine", ["model", "cycle"])
def test_run_steps_equals_per_step_calls(engine):
    rng = np.random.default_rng(0)
    requests = _mixed_stream(_scheme().num_variables, rng, steps=6)

    loop = AccessProtocol(_scheme(), engine=engine)
    loop_res = []
    for i, req in enumerate(requests):
        if req.op == "read":
            loop_res.append(loop.read(req.variables))
        elif req.op == "write":
            loop_res.append(loop.write(req.variables, req.values, timestamp=i + 1))
        else:
            loop_res.append(
                loop.mixed(req.variables, req.is_write, req.values, timestamp=i + 1)
            )

    batched = AccessProtocol(_scheme(), engine=engine)
    batch_res = batched.run_steps(requests, start_timestamp=1)
    assert len(batch_res) == len(loop_res)
    for a, b in zip(loop_res, batch_res):
        _assert_results_equal(a, b)


def test_run_steps_equals_per_step_with_faults():
    failed = [3, 17, 40]
    rng = np.random.default_rng(1)
    requests = _mixed_stream(_scheme().num_variables, rng, steps=5)

    def build():
        scheme = _scheme()
        injector = FaultInjector(scheme)
        injector.fail_nodes(failed)
        return AccessProtocol(scheme, engine="model", faults=injector)

    loop = build()
    loop_res = []
    for i, req in enumerate(requests):
        if req.op == "read":
            loop_res.append(loop.read(req.variables))
        elif req.op == "write":
            loop_res.append(loop.write(req.variables, req.values, timestamp=i + 1))
        else:
            loop_res.append(
                loop.mixed(req.variables, req.is_write, req.values, timestamp=i + 1)
            )
    for a, b in zip(loop_res, build().run_steps(requests, start_timestamp=1)):
        _assert_results_equal(a, b)


def _protocol_with_dead_variable():
    """A faulted protocol plus one recoverable and one unrecoverable
    variable (found, not hard-coded, so parameter tweaks keep working)."""
    scheme = _scheme()
    injector = FaultInjector(scheme)
    injector.fail_nodes(np.arange(scheme.params.n // 2))
    everything = np.arange(scheme.num_variables, dtype=np.int64)
    recoverable = injector.recoverable(everything)
    if recoverable.all() or not recoverable.any():
        pytest.skip("fault pattern did not split the variables")
    good = int(everything[recoverable][0])
    dead = int(everything[~recoverable][0])
    protocol = AccessProtocol(scheme, engine="model", faults=injector)
    return protocol, good, dead


def test_run_steps_records_refusals_and_continues():
    protocol, good, dead = _protocol_with_dead_variable()
    requests = [
        StepRequest(op="write", variables=[good], values=[5]),
        StepRequest(op="read", variables=[dead]),
        StepRequest(op="read", variables=[good]),
    ]
    results = protocol.run_steps(requests, on_error="record")
    assert isinstance(results[1], StepError)
    assert results[1].index == 1
    assert results[1].op == "read"
    assert results[1].n_requests == 1
    assert "unrecoverable" in results[1].message
    # The stream continued, and timestamps were not disturbed: the
    # write at step 0 is visible to the read at step 2.
    np.testing.assert_array_equal(results[2].values, [5])


def test_run_steps_raise_mode_and_bad_inputs():
    protocol, good, dead = _protocol_with_dead_variable()
    with pytest.raises(RuntimeError, match="unrecoverable"):
        protocol.run_steps([StepRequest(op="read", variables=[dead])])
    # Usage errors are never downgraded to StepError entries.
    with pytest.raises(ValueError, match="unknown op"):
        protocol.run_steps(
            [StepRequest(op="scan", variables=[good])], on_error="record"
        )
    with pytest.raises(ValueError, match="on_error"):
        protocol.run_steps([], on_error="ignore")


def test_mesh_backend_run_steps_matches_step_methods():
    rng = np.random.default_rng(3)
    requests = _mixed_stream(_scheme().num_variables, rng, steps=6, size=15)

    loop = MeshBackend(_scheme())
    loop_out = []
    for req in requests:
        cells = np.asarray(req.variables, dtype=np.int64)
        if req.op == "read":
            loop_out.append(loop.read_step(cells))
        elif req.op == "write":
            loop.write_step(cells, np.asarray(req.values))
            loop_out.append(None)
        else:
            is_write = np.asarray(req.is_write, dtype=bool)
            fetched = loop.mixed_step(
                cells[~is_write], cells[is_write], np.asarray(req.values)[is_write]
            )
            loop_out.append((fetched, cells[~is_write]))

    batched = MeshBackend(_scheme())
    batch_out = batched.run_steps(requests)
    assert batched.cost == loop.cost
    assert batched._time == loop._time == len(requests)
    reports = [backend.report() for backend in (batched, loop)]
    assert len({r.summary() for r in reports}) == 1
    assert len({r.total_mesh_steps for r in reports}) == 1
    assert reports[0].breakdown() == reports[1].breakdown()
    assert reports[0].op_counts() == reports[1].op_counts()
    for req, a, b in zip(requests, loop_out, batch_out):
        if req.op == "write":
            assert a is None and b is None
        elif req.op == "read":
            np.testing.assert_array_equal(a, b)
        else:
            # run_steps returns values aligned with the full request
            # set; compare at the read positions.
            fetched, read_cells = a
            order = np.argsort(np.asarray(req.variables))
            aligned = b[order[np.searchsorted(np.sort(req.variables), read_cells)]]
            np.testing.assert_array_equal(fetched, aligned)


def test_ideal_backend_run_steps_matches_loop():
    rng = np.random.default_rng(4)
    a, b = IdealBackend(500), IdealBackend(500)
    requests = _mixed_stream(500, rng, steps=6, size=30)
    out_b = b.run_steps(requests)
    for req, batched in zip(requests, out_b):
        cells = np.asarray(req.variables, dtype=np.int64)
        if req.op == "read":
            np.testing.assert_array_equal(a.read_step(cells), batched)
        elif req.op == "write":
            a.write_step(cells, np.asarray(req.values))
            assert batched is None
        else:
            is_write = np.asarray(req.is_write, dtype=bool)
            fetched = a.mixed_step(
                cells, cells[is_write], np.asarray(req.values)[is_write]
            )
            np.testing.assert_array_equal(fetched, batched)
    assert a.cost == b.cost
    np.testing.assert_array_equal(a.snapshot(), b.snapshot())


def test_machine_scatter_gather_batched():
    scheme = _scheme()
    payload = np.arange(150, dtype=np.int64) * 3 + 1
    base = 7

    batched = PRAMMachine(MeshBackend(scheme), scheme.params.n)
    batched.scatter(base, payload)
    np.testing.assert_array_equal(batched.gather(base, payload.size), payload)
    # ceil(150 / 64) chunks per direction.
    assert batched.pram_steps == 2 * -(-payload.size // scheme.params.n)

    with pytest.raises(ValueError, match="address"):
        batched.scatter(batched.backend.memory_size - 1, payload)
    with pytest.raises(ValueError, match="address"):
        batched.gather(-1, 5)


def test_run_steps_threads_origin_through_results():
    """The opaque ``origin`` token survives execution untouched, so a
    coalescing caller (the serve layer) can re-attribute each batched
    result to the clients whose requests were merged into it."""
    protocol = AccessProtocol(_scheme(), engine="model")
    token = (("s0", 4, 0, 2), ("s1", 9, 2, 3))
    requests = [
        StepRequest(op="write", variables=[1, 2, 3], values=[10, 20, 30],
                    origin=token),
        StepRequest(op="read", variables=[1, 2, 3]),
        StepRequest(op="read", variables=[2], origin="just-a-string"),
    ]
    results = protocol.run_steps(requests)
    assert results[0].origin == token  # identity-preserved, not copied
    assert results[1].origin is None  # absent stays absent
    assert results[2].origin == "just-a-string"
    # The result is otherwise identical to an origin-free run.
    bare = AccessProtocol(_scheme(), engine="model").run_steps(
        [StepRequest(op=r.op, variables=r.variables, values=r.values)
         for r in requests]
    )
    for a, b in zip(results, bare):
        _assert_results_equal(a, b)


def test_run_steps_origin_survives_refusal():
    protocol, good, dead = _protocol_with_dead_variable()
    results = protocol.run_steps(
        [
            StepRequest(op="read", variables=[dead], origin=("s3", 1, 0, 1)),
            StepRequest(op="read", variables=[good]),
        ],
        on_error="record",
    )
    assert isinstance(results[0], StepError)
    assert results[0].origin == ("s3", 1, 0, 1)
    assert results[1].origin is None
