import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from bpagg import simulate
from bpagg.kronalg import NotSubcriticalError
from bpagg.model import (
    BranchingModel,
    IndependentMarginals,
    Point,
    Poisson,
    model_digest,
)
from bpagg.simulate import (
    PathEnsemble,
    SimulationOverflowError,
    aggregate,
    aggregates_to_csv,
    _block_advance,
    _run_block,
    _simulate_block,
    block_copies,
    burnin_auto,
    default_threads,
    derived_seed,
    ensemble_metadata,
    extract_innovations,
    paths_to_csv,
    simulate_ensemble,
    simulate_path,
    step,
    stream_rng,
    write_metadata,
)
from bpagg.simulate import percopy_aggregates
from bpagg.model import Bernoulli, Binomial, FiniteSupport, Geometric
from conftest import (
    build_deterministic,
    build_deterministic_scalar,
    build_scalar_inar,
    build_two_type,
)


def test_step_deterministic_fixed_point():
    model = build_deterministic()
    rng = np.random.default_rng(0)
    assert_allclose(step(model, [0, 0], rng), [2, 3])
    assert_allclose(step(model, [2, 3], rng), [2, 5])
    assert_allclose(step(model, [2, 5], rng), [2, 5])


def test_step_empty_population_draws_only_immigration():
    model = build_deterministic_scalar()
    rng = np.random.default_rng(0)
    assert step(model, [0], rng)[0] == 1


def test_step_state_validation():
    model = build_scalar_inar()
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        step(model, [1, 2], rng)
    with pytest.raises(ValueError):
        step(model, [-1], rng)


def test_path_shape_and_zero_start():
    model = build_two_type()
    path = simulate_path(model, 10, np.random.default_rng(1))
    assert path.shape == (11, 2)
    assert path.dtype == np.int64
    assert_allclose(path[0], [0, 0])
    assert simulate_path(model, 0, np.random.default_rng(1)).shape == (1, 2)
    with pytest.raises(ValueError):
        simulate_path(model, -1, np.random.default_rng(1))


def test_deterministic_path_hits_fixed_point():
    model = build_deterministic()
    path = simulate_path(model, 4, np.random.default_rng(0))
    assert_allclose(path, [[0, 0], [2, 3], [2, 5], [2, 5], [2, 5]])
    warm = simulate_path(model, 3, np.random.default_rng(0), burnin=5)
    assert_allclose(warm, [[2, 5]] * 4)
    assert_allclose(extract_innovations(model, warm), 0.0)


def test_burnin_values():
    assert burnin_auto(build_scalar_inar()) == 100
    assert burnin_auto(build_deterministic()) == 100
    slow = BranchingModel(
        1,
        (IndependentMarginals([Bernoulli(0.96)]),),
        IndependentMarginals([Poisson(1.0)]),
    )
    assert burnin_auto(slow) == 339
    crit = BranchingModel(
        1, (IndependentMarginals([Point(1)]),), IndependentMarginals([Poisson(1.0)])
    )
    with pytest.raises(NotSubcriticalError):
        burnin_auto(crit)


def test_burnin_auto_ceiling_raises_before_running():
    # rho = 1 - 1e-8 would need about 1.38e9 burn-in steps
    near = BranchingModel(
        1,
        (IndependentMarginals([Bernoulli(1.0 - 1e-8)]),),
        IndependentMarginals([Poisson(1.0)]),
    )
    with pytest.raises(ValueError, match="rho") as exc:
        burnin_auto(near)
    assert "--burnin K" in str(exc.value)
    with pytest.raises(ValueError, match="--burnin K"):
        simulate_path(near, 5, stream_rng(0), burnin="auto")
    # an explicit burn-in still runs
    assert simulate_path(near, 5, stream_rng(0), burnin=3).shape == (6, 1)


def test_burnin_argument_validation():
    model = build_scalar_inar()
    with pytest.raises(ValueError):
        simulate_path(model, 5, np.random.default_rng(0), burnin=-1)
    with pytest.raises(ValueError):
        simulate_path(model, 5, np.random.default_rng(0), burnin=2.5)


def _table_model():
    """Two types with a finite-table offspring law and table immigration."""
    return BranchingModel(
        2,
        (
            FiniteSupport([[0, 0], [1, 0], [0, 2]], [0.5, 0.3, 0.2]),
            IndependentMarginals([Poisson(0.2), Bernoulli(0.3)]),
        ),
        FiniteSupport([[0, 0], [2, 1], [1, 3]], [0.4, 0.3, 0.3]),
    )


def _array_block_path(model, n, rng, burnin):
    """One copy stepped by the (B, p) array stepper on a (1, p) block."""
    x = np.zeros((1, model.p), dtype=np.int64)
    return _run_block(model, _block_advance(model), 1, n, rng, burnin, x)[0]


@pytest.mark.parametrize(
    "build", [build_scalar_inar, build_two_type, _table_model], ids=["scalar", "two", "table"]
)
def test_path_matches_repeated_steps(build, monkeypatch):
    # a path is stepped on Python ints with scalar draws; it consumes the
    # stream exactly like the array stepper on a (1, p) block, burn-in
    # included, across several immigration chunks (40 // p steps each)
    monkeypatch.setattr(simulate, "_BLOCK_CELLS", 40)
    model = build()
    path = simulate_path(model, 200, stream_rng(7), burnin=15)
    block = _array_block_path(model, 200, stream_rng(7), 15)
    assert path.dtype == np.int64
    assert np.array_equal(path, block)
    assert path[1:].sum() > 0


@pytest.mark.parametrize("copies", [1, 3])
def test_block_follows_documented_stream_order(copies, monkeypatch):
    # chunks of k = _BLOCK_CELLS // (copies p) steps: the chunk's immigration
    # for every step and copy in one call, then offspring step by step
    cells = 12
    monkeypatch.setattr(simulate, "_BLOCK_CELLS", cells)
    model, n, burnin = _table_model(), 9, 4
    k = cells // (copies * model.p)
    rng = stream_rng(3)
    x = np.zeros((copies, model.p), dtype=np.int64)
    states = [x]
    for done in range(0, burnin + n, k):
        m = min(k, burnin + n - done)
        eps = model.immigration.sample(rng, m * copies).reshape(m, copies, model.p)
        for t in range(m):
            draws = [law.sample_sum(x[:, i], rng) for i, law in enumerate(model.offspring)]
            x = eps[t] + sum(draws)
            states.append(x)
    expected = np.stack(states[burnin:], axis=1)
    paths = _simulate_block(model, copies, n, stream_rng(3), burnin)
    assert np.array_equal(paths, expected)


def test_path_holds_one_chunk_of_rows(monkeypatch):
    # a path keeps Python rows for one chunk only (1024 steps here); keeping
    # all 40000 rows as lists would take several megabytes
    monkeypatch.setattr(simulate, "_BLOCK_CELLS", 1024)
    model, n = build_scalar_inar(), 40000
    simulate_path(model, 10, stream_rng(1))
    tracemalloc.start()
    try:
        path = simulate_path(model, n, stream_rng(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - path.nbytes < 1_000_000


_MARGINAL_KINDS = (
    lambda u: Poisson(0.6 * u),
    lambda u: Bernoulli(0.6 * u),
    lambda u: Binomial(2, 0.3 * u),
    lambda u: Geometric(1.0 / (1.0 + 0.6 * u)),
    lambda u: Point(int(u < 0.1)),
)


@st.composite
def _small_models(draw):
    """Random models with p <= 3 mixing the five marginal kinds and tables.

    Offspring means stay below 1 / p per entry except for point masses at 1,
    which can make a model supercritical; immigration means are at least 0.3
    per coordinate.
    """
    p = draw(st.integers(1, 3))

    def law(lo, scale):
        unit = st.floats(lo, 1.0)
        if draw(st.booleans()):
            atoms = [[0] * p] + [[2 * int(j == i) for j in range(p)] for i in range(p)]
            w = [draw(unit) / (2 * p) for _ in range(p)]
            return FiniteSupport(atoms, [1.0 - sum(w)] + w)
        kinds = [draw(st.integers(0, 4)) for _ in range(p)]
        return IndependentMarginals([_MARGINAL_KINDS[k](draw(unit) * scale) for k in kinds])

    return BranchingModel(p, tuple(law(0.0, 1.0 / p) for _ in range(p)), law(0.5, 1.0))


def _path_or_overflow(run):
    try:
        return run()
    except SimulationOverflowError:
        return "overflow"


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    model=_small_models(),
    n=st.integers(0, 30),
    burnin=st.integers(0, 12),
    cells=st.integers(1, 24),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_path_matches_array_block_property(model, n, burnin, cells, seed):
    # equal paths, or an overflow on both routes
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "_BLOCK_CELLS", cells)
        path = _path_or_overflow(
            lambda: simulate_path(model, n, stream_rng(seed), burnin=burnin)
        )
        block = _path_or_overflow(
            lambda: _array_block_path(model, n, stream_rng(seed), burnin)
        )
    assert np.array_equal(path, block)


def test_step_is_a_one_step_chunk():
    # step draws one immigration vector, then each type's offspring sums
    model = _table_model()
    state = np.array([3, 4], dtype=np.int64)
    out = step(model, state, stream_rng(2))
    assert out.dtype == np.int64 and out.shape == (2,)
    rng = stream_rng(2)
    total = np.asarray(model.immigration.sample(rng, 1)[0], dtype=np.int64)
    for i, law in enumerate(model.offspring):
        total = total + law.sample_sum(int(state[i]), rng)
    assert np.array_equal(out, total)


def test_stream_addressing_is_stable():
    assert derived_seed(42, 0, 3) == derived_seed(42, 0, 3)
    assert derived_seed(42, 0, 3) != derived_seed(42, 0, 4)
    assert derived_seed(42, 0, 3) != derived_seed(43, 0, 3)
    a = stream_rng(42, 5).integers(0, 1 << 30, 4)
    b = stream_rng(42, 5).integers(0, 1 << 30, 4)
    c = stream_rng(42, 6).integers(0, 1 << 30, 4)
    assert_allclose(a, b)
    assert not np.array_equal(a, c)


def test_ensemble_reproducible_and_thread_invariant():
    model = build_two_type()
    base = simulate_ensemble(model, 6, 40, master_seed=11, burnin=3)
    again = simulate_ensemble(model, 6, 40, master_seed=11, burnin=3)
    threaded = simulate_ensemble(model, 6, 40, master_seed=11, burnin=3, threads=3)
    assert_allclose(base.paths, again.paths)
    assert_allclose(base.paths, threaded.paths)
    assert base.N == 6 and base.n == 40 and base.p == 2 and base.burnin == 3


# 16384 counts per copy: blocks of 4 copies, so 10 copies make 3 blocks
_BLOCKED = {"N": 10, "n": 16383}


def test_ensemble_block_matches_block_run_alone():
    model = build_scalar_inar()
    N, n = _BLOCKED["N"], _BLOCKED["n"]
    size = block_copies(n, model.p)
    assert size == 4
    ens = simulate_ensemble(model, N, n, master_seed=5, burnin=10)
    starts = list(range(0, N, size))
    assert len(starts) == 3
    for b, a in enumerate(starts):
        copies = min(size, N - a)
        alone = _simulate_block(model, copies, n, stream_rng(5, b), 10)
        assert_allclose(ens.paths[a : a + copies], alone, atol=0)
    # a block of one copy is a path on the block's stream
    one = simulate_ensemble(model, 1, n, master_seed=5, burnin=10)
    assert_allclose(one.paths[0], simulate_path(model, n, stream_rng(5, 0), 10), atol=0)


def test_ensemble_blocks_thread_invariant():
    model = build_scalar_inar()
    N, n = _BLOCKED["N"], _BLOCKED["n"]
    base = simulate_ensemble(model, N, n, master_seed=8, burnin=0)
    for threads in (2, 3):
        other = simulate_ensemble(model, N, n, master_seed=8, burnin=0, threads=threads)
        assert np.array_equal(base.paths, other.paths)
    # blocks are not copies of one another
    assert not np.array_equal(base.paths[:4], base.paths[4:8])


def test_block_size_from_cell_budget():
    assert block_copies(200, 1) == 326
    assert block_copies(80, 3) == 269
    assert block_copies(10 ** 6, 1) == 1


def test_ensemble_argument_validation():
    model = build_scalar_inar()
    with pytest.raises(ValueError):
        simulate_ensemble(model, 0, 10, master_seed=1)


def test_overflow_guard():
    doubling = BranchingModel(
        1, (IndependentMarginals([Point(2)]),), IndependentMarginals([Point(1)])
    )
    with pytest.raises(SimulationOverflowError):
        simulate_path(doubling, 40, np.random.default_rng(0))
    with pytest.raises(SimulationOverflowError):
        simulate_ensemble(doubling, 3, 40, master_seed=0, burnin=0)
    doubling2 = BranchingModel(
        2,
        (
            IndependentMarginals([Point(2), Point(0)]),
            IndependentMarginals([Point(0), Point(2)]),
        ),
        IndependentMarginals([Point(1), Point(1)]),
    )
    with pytest.raises(SimulationOverflowError):
        simulate_path(doubling2, 40, np.random.default_rng(0))
    with pytest.raises(SimulationOverflowError):
        simulate_ensemble(doubling2, 2, 40, master_seed=0, burnin=0)


@pytest.mark.parametrize("copies", [1, 3])
def test_overflow_guard_boundary(copies):
    # the ceiling is 2^31 inclusive, on the one-copy and the array route
    def flat(c):
        return BranchingModel(
            2,
            (IndependentMarginals([Point(0), Point(0)]),) * 2,
            IndependentMarginals([Point(5), Point(c)]),
        )

    ens = simulate_ensemble(flat(2 ** 31), copies, 4, master_seed=0, burnin=2)
    assert np.all(ens.paths[:, :, 1] == 2 ** 31)
    with pytest.raises(SimulationOverflowError):
        simulate_ensemble(flat(2 ** 31 + 1), copies, 4, master_seed=0, burnin=0)


def _scalar(offspring, immigration):
    return BranchingModel(
        1, (IndependentMarginals([offspring]),), IndependentMarginals([immigration])
    )


def _wide_row_model():
    # every constant is below 2^32, but three types feed coordinate 0: from
    # the state (2^31, 2^31, 2^31) the row sum 2^31 + 2^31 (2 (2^32 - 1) + 2)
    # is 2^64 + 2^31, which wraps back to 2^31
    c = 2 ** 32 - 1
    return BranchingModel(
        3,
        tuple(IndependentMarginals([Point(v), Point(0), Point(0)]) for v in (c, c, 2)),
        IndependentMarginals([Point(2 ** 31)] * 3),
    )


_WRAPPING = {
    # 2^31 * 2^40 wraps to 0, so the array route returned constant 2^31 paths
    "point": lambda: _scalar(Point(2 ** 40), Point(2 ** 31)),
    # binomial(2^30 * 2^40, q) cannot be drawn in int64; the true mean is 2^28
    "binomial": lambda: _scalar(Binomial(2 ** 40, 2.0 ** -42), Point(2 ** 30)),
    "table": lambda: BranchingModel(
        1, (FiniteSupport([[0], [2 ** 40]], [0.5, 0.5]),), IndependentMarginals([Point(2 ** 31)])
    ),
    "rows": _wide_row_model,
}


@pytest.mark.parametrize("copies", [1, 2])
@pytest.mark.parametrize("name", sorted(_WRAPPING))
def test_int64_products_raise_instead_of_wrapping(name, copies):
    with pytest.raises(SimulationOverflowError):
        simulate_ensemble(_WRAPPING[name](), copies, 5, master_seed=0, burnin=0)


def test_product_guard_only_for_large_constants():
    for model in (build_scalar_inar(), build_two_type(), build_deterministic(), _table_model()):
        assert simulate._offspring(model) is model.offspring
    edge = _scalar(Point(2 ** 32 - 1), Point(1))
    assert simulate._offspring(edge) is edge.offspring
    for name in _WRAPPING:
        model = _WRAPPING[name]()
        assert simulate._offspring(model) is not model.offspring, name


@pytest.mark.parametrize("copies", [1, 3])
def test_product_guard_draws_the_same_numbers(copies, monkeypatch):
    # binomial(2^40, 2^-42) offspring with one immigrant a step stays small,
    # so the guarded laws must return the unguarded draws
    model = _scalar(Binomial(2 ** 40, 2.0 ** -42), Point(1))
    guarded = simulate_ensemble(model, copies, 300, master_seed=3, burnin=0).paths
    monkeypatch.setattr(simulate, "_INT64_WRAP", 1 << 200)
    assert simulate._offspring(model) is model.offspring
    plain = simulate_ensemble(model, copies, 300, master_seed=3, burnin=0).paths
    assert np.array_equal(guarded, plain)


def test_innovation_reconstruction_and_example():
    model = build_scalar_inar()
    path = simulate_path(model, 300, stream_rng(3), burnin="auto")
    u = extract_innovations(model, path)
    x = path.astype(float)
    assert_allclose(x[1:], x[:-1] * 0.5 + 1.0 + u, atol=1e-12)
    assert extract_innovations(model, [[2], [3]])[0, 0] == pytest.approx(1.0)
    with pytest.raises(ValueError):
        extract_innovations(model, [[2]])
    with pytest.raises(ValueError):
        extract_innovations(model, [[2, 3], [1, 1]])


def _manual_ensemble(model, paths, seed=0, burnin=0):
    return PathEnsemble(model, seed, burnin, np.asarray(paths, dtype=np.int64))


def test_aggregate_arithmetic_single_copy():
    model = build_scalar_inar()  # stationary mean 2
    ens = _manual_ensemble(model, [[[0], [3], [4]]])
    raw = aggregate(ens, (0.0, 0.5, 1.0), scaled=False)
    assert_allclose(raw.values[:, 0], [0.0, 1.0, 3.0])
    scaled = aggregate(ens, (0.0, 0.5, 1.0), scaled=True)
    assert_allclose(scaled.values[:, 0], np.array([0.0, 1.0, 3.0]) / math.sqrt(2))
    assert scaled.grid == (0.0, 0.5, 1.0)
    assert scaled.n == 2 and scaled.N == 1 and scaled.scaled


def test_aggregate_sums_over_copies():
    model = build_scalar_inar()
    ens = _manual_ensemble(model, [[[0], [3]], [[0], [1]]])
    raw = aggregate(ens, (1.0,), scaled=False)
    # (3 - 2) + (1 - 2) = 0
    assert_allclose(raw.values[0, 0], 0.0)
    scaled = aggregate(ens, (1.0,), scaled=True)
    assert_allclose(scaled.values[0, 0], 0.0)


def test_aggregate_grid_validation():
    model = build_scalar_inar()
    ens = _manual_ensemble(model, [[[0], [3], [4]]])
    with pytest.raises(ValueError):
        aggregate(ens, (-0.1,))
    with pytest.raises(ValueError):
        aggregate(ens, (1.6,))


def test_percopy_matches_pooled_aggregate():
    model = build_two_type()
    ens = simulate_ensemble(model, 5, 60, master_seed=21)
    grid = (0.25, 0.5, 1.0)
    per = percopy_aggregates(ens, grid)
    pooled = aggregate(ens, grid, scaled=True)
    assert per.shape == (5, 3, 2)
    assert_allclose(per.sum(axis=0) / math.sqrt(5), pooled.values, atol=1e-10)


def test_ensemble_empirical_mean_near_stationary():
    model = build_scalar_inar()
    ens = simulate_ensemble(model, 200, 200, master_seed=99)
    grand = ens.paths[:, 1:, 0].mean()
    # time-average variance is sigma / n per copy, about 6/200, then / 200
    assert grand == pytest.approx(2.0, abs=0.1)


def test_csv_and_metadata_round_trip(tmp_path):
    model = build_two_type()
    ens = simulate_ensemble(model, 2, 3, master_seed=4, burnin=0)
    pcsv = tmp_path / "paths.csv"
    paths_to_csv(ens, pcsv)
    lines = pcsv.read_text().strip().split("\n")
    assert lines[0] == "copy,k,x_1,x_2"
    assert len(lines) == 1 + 2 * 4
    first = lines[1].split(",")
    assert first[:2] == ["0", "0"]
    assert [int(v) for v in first[2:]] == list(ens.paths[0, 0])

    series = aggregate(ens, (0.5, 1.0))
    acsv = tmp_path / "agg.csv"
    aggregates_to_csv(series, acsv)
    alines = acsv.read_text().strip().split("\n")
    assert alines[0] == "t,s_1,s_2"
    cells = alines[1].split(",")
    assert float(cells[0]) == 0.5
    assert float(cells[1]) == pytest.approx(series.values[0, 0], abs=0)

    meta = tmp_path / "meta.json"
    write_metadata(ens, meta)
    payload = json.loads(meta.read_text())
    assert payload == ensemble_metadata(ens)
    assert payload["model"] == model_digest(model)
    assert payload["copies"] == 2 and payload["steps"] == 3 and payload["burnin"] == 0


def test_paths_to_csv_matches_per_row_format(tmp_path, monkeypatch):
    rng = np.random.default_rng(3)
    paths = rng.integers(0, 5000, size=(3, 11, 3)).astype(np.int64)
    paths[1, 4, 2] = 2 ** 31
    ens = _manual_ensemble(None, paths)  # paths_to_csv reads only the paths
    expected = "copy,k,x_1,x_2,x_3\n" + "".join(
        "%d,%d,%s\n" % (j, k, ",".join(str(int(v)) for v in paths[j, k]))
        for j in range(3)
        for k in range(11)
    )
    out = tmp_path / "paths.csv"
    paths_to_csv(ens, out)
    assert out.read_bytes() == expected.encode()
    # rows split over several writes per copy, with a ragged last one
    monkeypatch.setattr(simulate, "_CSV_ROWS", 4)
    paths_to_csv(ens, out)
    assert out.read_bytes() == expected.encode()


def test_default_threads_env(monkeypatch):
    monkeypatch.delenv("BPAGG_THREADS", raising=False)
    assert default_threads() == 1
    monkeypatch.setenv("BPAGG_THREADS", "4")
    assert default_threads() == 4
    monkeypatch.setenv("BPAGG_THREADS", "junk")
    assert default_threads() == 1
    monkeypatch.setenv("BPAGG_THREADS", "0")
    assert default_threads() == 1
