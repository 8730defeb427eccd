"""The reverse-mode adjoint sweep over stacked parameter sets.

:func:`repro.training.gradients.adjoint_sweep` takes ``(K, P)`` parameter
sets and returns ``(K,)`` losses and ``(K, P)`` gradients from one sweep.
Its agreement with the per-gate walk is checked in
``test_adjoint_vectorized.py``; here, that it is *bitwise* slice-exact: a
stacked call equals ``K`` single calls, any contiguous slice and any
block split — the noise contract (pool:2 == pool:4 == in-process) rests
on that.  The sweep's tapes come from a per-thread arena kept between
calls; the last tests check that reusing it changes no result.
"""

import logging
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from repro.exceptions import GradientError
from repro.network import Projection, QuantumNetwork
from repro.training import gradients
from repro.training.gradients import adjoint_sweep, loss_and_gradient


def make_net(dim, descending=False, allow_phase=False, layers=3, seed=4,
             backend="loop"):
    rng = np.random.default_rng(seed)
    net = QuantumNetwork(
        dim, layers, descending=descending, allow_phase=allow_phase,
        backend=backend,
    ).initialize("uniform", rng=rng)
    if allow_phase:
        params = net.get_flat_params()
        params[net.num_thetas:] = rng.uniform(-np.pi, np.pi, net.num_thetas)
        net.set_flat_params(params)
    return net


def batch(dim, m=6, complex_=False, seed=5):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(dim, m))
    if complex_:
        x = x + 1j * rng.normal(size=(dim, m))
    return x / np.linalg.norm(x, axis=0)


def stacked_params(net, k, seed=9):
    """``k`` parameter sets around the network's: jittered thetas, the
    network's own phases (as in noise-aware training)."""
    jitter = np.zeros((k, net.num_parameters))
    jitter[:, : net.num_thetas] = 0.1 * np.random.default_rng(seed).normal(
        size=(k, net.num_thetas)
    )
    return net.get_flat_params()[None] + jitter


@pytest.mark.parametrize("descending", [False, True])
@pytest.mark.parametrize("allow_phase", [False, True])
def test_stack_equals_single_calls_and_slices(descending, allow_phase):
    net = make_net(8, descending, allow_phase, layers=4)
    x = batch(8, m=7)
    t = batch(8, m=7, seed=6)
    proj = Projection.last(8, 3)
    sets = stacked_params(net, 5)
    values, grads = adjoint_sweep(net, sets, x, t, projection=proj)
    for lo in range(5):
        for hi in range(lo + 1, 6):
            v, g = adjoint_sweep(net, sets[lo:hi], x, t, projection=proj)
            assert np.array_equal(v, values[lo:hi]), (lo, hi)
            assert np.array_equal(g, grads[lo:hi]), (lo, hi)


@pytest.mark.parametrize("backend", ["loop", "fused"])
def test_stack_row_equals_network_gradient(backend):
    """Row ``r`` equals ``loss_and_gradient`` on a network set to
    ``params[r]`` — on ``fused`` after a forward pass, i.e. through the
    backend's cached fold."""
    net = make_net(8, layers=4, backend=backend)
    x, t = batch(8), batch(8, seed=6)
    sets = stacked_params(net, 4)
    values, grads = adjoint_sweep(net, sets, x, t)
    for r, params in enumerate(sets):
        net.set_flat_params(params)
        net.forward(x)
        v, g = loss_and_gradient(net, x, t, method="adjoint")
        assert v == values[r]
        assert np.array_equal(g, grads[r])


@pytest.mark.parametrize("descending", [False, True])
def test_block_split_is_bitwise(monkeypatch, descending):
    net = make_net(6, descending, allow_phase=True, layers=3)
    x = batch(6, m=5, complex_=True)
    t = batch(6, m=5, complex_=True, seed=6)
    sets = stacked_params(net, 7)
    values, grads = adjoint_sweep(net, sets, x, t)
    assert gradients._sweep_block_size(net.num_layers, 6, 5, x.dtype) >= 7
    for block in (1, 2, 3):
        monkeypatch.setattr(gradients, "_sweep_block_size", lambda *a: block)
        v, g = adjoint_sweep(net, sets, x, t)
        assert np.array_equal(v, values), block
        assert np.array_equal(g, grads), block


@pytest.mark.parametrize("allow_phase", [False, True])
def test_block_tapes_stay_under_budget(monkeypatch, allow_phase):
    """A full block's allocations stay within the element budget (float64
    elements; a complex one counts twice) — a sizing that counted only
    the forward tape would overshoot it about fourfold."""
    budget = 200_000
    monkeypatch.setattr(gradients, "ELEMENT_BUDGET", budget)
    net = make_net(16, allow_phase=allow_phase, layers=12)
    x = batch(16, m=25, complex_=allow_phase)
    t = batch(16, m=25, complex_=allow_phase, seed=6)
    block = gradients._sweep_block_size(12, 16, 25, net.result_dtype(x))
    assert block > 1
    sets = stacked_params(net, block)
    tracemalloc.start()
    try:
        adjoint_sweep(net, sets, x, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Slack for the small per-set outputs and einsum temporaries.
    assert peak <= 1.1 * budget * 8


def test_mixed_phase_stack_matches_single_calls():
    """Rows with and without phases in one stack: all rows fold in
    complex arithmetic, so each agrees with its own call at rounding
    level (bitwise only when the rows share their phases)."""
    net = make_net(6, allow_phase=True, layers=3)
    x = batch(6, m=5, complex_=True)
    t = batch(6, m=5, complex_=True, seed=6)
    sets = stacked_params(net, 4)
    sets[1, net.num_thetas:] = 0.0
    values, grads = adjoint_sweep(net, sets, x, t)
    for r in range(4):
        v, g = adjoint_sweep(net, sets[r : r + 1], x, t)
        assert v[0] == pytest.approx(values[r], abs=1e-12)
        assert np.max(np.abs(g[0] - grads[r])) < 1e-12


def test_sweep_leaves_network_parameters_alone():
    net = make_net(5)
    before = net.get_flat_params().copy()
    adjoint_sweep(net, stacked_params(net, 3), batch(5), batch(5, seed=6))
    assert np.array_equal(net.get_flat_params(), before)


def test_params_shape_checked():
    net = make_net(4)
    with pytest.raises(GradientError):
        adjoint_sweep(net, net.get_flat_params(), batch(4), batch(4, seed=6))
    with pytest.raises(GradientError):
        adjoint_sweep(net, np.zeros((2, net.num_parameters + 1)), batch(4),
                      batch(4, seed=6))


# -- The per-thread tape arena ---------------------------------------------

#: Paper-sized meshes: U_C (12 layers, ascending, projected onto the kept
#: modes) and U_R (14 layers, descending), 16 modes.
MESHES = {"U_C": (12, False), "U_R": (14, True)}


def arena_case(mesh, allow_phase, k, m):
    layers, descending = MESHES[mesh]
    net = make_net(16, descending, allow_phase, layers=layers, seed=layers)
    x = batch(16, m=m, complex_=allow_phase)
    t = batch(16, m=m, complex_=allow_phase, seed=6)
    proj = Projection.last(16, 4) if mesh == "U_C" else None
    return net, stacked_params(net, k), x, t, proj


def sweep(case):
    net, sets, x, t, proj = case
    return adjoint_sweep(net, sets, x, t, projection=proj)


def in_new_thread(fn, *args):
    """``fn(*args)`` on a thread of its own, i.e. on an empty arena."""
    out = []
    worker = threading.Thread(target=lambda: out.append(fn(*args)))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive() and len(out) == 1
    return out[0]


#: Consecutive keys change K (8 -> 3 -> 8), M (25 -> 10 -> 25), the mesh
#: (U_C <-> U_R) and the dtype (real <-> allow_phase).
INTERLEAVED = [
    ("U_C", False, 8, 25),
    ("U_C", False, 3, 25),
    ("U_C", False, 8, 10),
    ("U_R", False, 8, 25),
    ("U_R", True, 8, 25),
    ("U_C", True, 3, 10),
    ("U_C", False, 8, 25),
    ("U_R", True, 3, 10),
    ("U_R", False, 8, 10),
]


def test_interleaved_shapes_reuse_the_arena_bitwise():
    cases = {key: arena_case(*key) for key in INTERLEAVED}
    first = {key: in_new_thread(sweep, case) for key, case in cases.items()}
    for _ in range(2):
        for key in INTERLEAVED:
            v, g = sweep(cases[key])
            assert np.array_equal(v, first[key][0]), key
            assert np.array_equal(g, first[key][1]), key


def test_results_survive_the_next_call():
    """Losses and gradients never alias the arena: the next sweep, which
    overwrites every tape, leaves them as they were."""
    case = arena_case("U_C", False, 8, 25)
    net, sets, x, t, proj = case
    values, grads = sweep(case)
    loss1, grad1 = loss_and_gradient(net, x, t, projection=proj)
    kept = values.copy(), grads.copy(), loss1, grad1.copy()
    adjoint_sweep(net, sets + 0.3, x, t, projection=proj)
    loss_and_gradient(net, x + 0.1, t, projection=proj)
    assert np.array_equal(values, kept[0])
    assert np.array_equal(grads, kept[1])
    assert loss1 == kept[2]
    assert np.array_equal(grad1, kept[3])
    for out in (values, grads, grad1):
        assert not np.shares_memory(out, gradients._ARENA.buf)


def test_repeated_sweep_allocates_no_tapes():
    """A warm K = 8 U_C-sized sweep peaks below the four tapes' combined
    size: the layer inputs and adjoints and the gate row and adjoint
    tapes come from the arena, not from fresh allocations."""
    k, layers, n, m = 8, 12, 16, 25
    tapes = 8 * k * m * ((layers + 1) * n + layers * n + 2 * layers * (n - 1))
    case = arena_case("U_C", False, k, m)
    sweep(case)
    tracemalloc.start()
    try:
        sweep(case)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < tapes


def test_concurrent_threads_keep_their_own_arenas():
    """More threads than cores, two shapes, switching every microsecond:
    each thread's sweeps stay bitwise the single-thread results, which a
    tape shared between threads would break."""
    keys = [("U_C", False, 8, 25), ("U_R", True, 3, 10)] * 2
    cases = [arena_case(*key) for key in keys]
    expected = [sweep(case) for case in cases]
    start = threading.Barrier(len(cases))
    results = [[] for _ in cases]

    def run(i):
        start.wait()
        for _ in range(10):
            results[i].append(sweep(cases[i]))

    workers = [
        threading.Thread(target=run, args=(i,)) for i in range(len(cases))
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    for i, (values, grads) in enumerate(expected):
        assert len(results[i]) == 10
        for v, g in results[i]:
            assert np.array_equal(v, values), keys[i]
            assert np.array_equal(g, grads), keys[i]


def test_arena_growth_is_logged_once(caplog):
    caplog.set_level(logging.DEBUG, logger="repro.training.gradients")
    case = arena_case("U_C", False, 8, 25)

    def twice():
        sweep(case)
        grown = len(caplog.records)
        sweep(case)
        return grown, len(caplog.records)

    assert in_new_thread(twice) == (1, 1)
    (record,) = caplog.records
    assert record.levelno == logging.DEBUG
    assert record.name == "repro.training.gradients"
    message = record.getMessage()
    assert "152000 float64s" in message
    for tape in ("xs 41600", "mus 38400", "rows 36000", "adjoints 36000"):
        assert tape in message


def test_set_over_the_budget_is_not_kept(monkeypatch, caplog):
    """A single parameter set whose tapes outgrow the element budget
    gets fresh tapes: the arena neither grows nor logs, and the result
    is unchanged."""
    caplog.set_level(logging.DEBUG, logger="repro.training.gradients")
    case = arena_case("U_R", True, 3, 10)
    values, grads = sweep(case)
    monkeypatch.setattr(gradients, "ELEMENT_BUDGET", 1_000)

    def over_budget():
        out = sweep(case)
        return out, gradients._ARENA.buf.size

    caplog.clear()
    (v, g), held = in_new_thread(over_budget)
    assert held == 0
    assert not caplog.records
    assert np.array_equal(v, values)
    assert np.array_equal(g, grads)
