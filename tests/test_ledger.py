"""The byte ledger's battery (tests/ledger.py) reruns byte-identically in one
process, and its --threads 2 runs write what their one-process twins
write, on blocks of both routes. The committed manifest is not compared
here: BLAS kernels differ by CPU, so a matmul may move last bits between
hosts even where the numpy versions match."""

import copy

import ledger

from bpagg import simulate
from bpagg.model import model_from_json

# every run of the battery that starts no worker process
SLICE = [argv for argv in ledger.BATTERY if "--threads 2" not in " ".join(argv)]


def test_battery_slice_reruns_are_byte_identical():
    first = {" ".join(argv): ledger.run(argv) for argv in SLICE}
    assert {" ".join(argv): ledger.run(argv) for argv in SLICE} == first
    # the slice holds passing, failing and refused runs, and written files
    assert {record["exit"] for record in first.values()} == {0, 2, 3}
    assert any(record["files"] for record in first.values())


def test_compare_lists_what_moved_by_verb_and_model():
    runs = {" ".join(argv): ledger.run(argv) for argv in SLICE[:3]}
    old = {"python": "3", "numpy": "2", "models": {"inar": "a"}, "runs": runs}
    assert ledger.compare(old, old) == []
    new = copy.deepcopy(old)
    key = " ".join(SLICE[0])
    new["runs"][key]["stdout"] = "0" * 64
    new["runs"][key]["exit"] = 7
    assert ledger.compare(old, new) == ["%s on inar:" % ledger._label(SLICE[0])[0],
                                        "  %s: exit, stdout" % key]


def test_threads_two_runs_match_their_one_thread_twins():
    # each --threads 2 run of the battery prints and writes what its
    # --threads 1 twin does, or, where the battery has no twin, the same
    # argv without --threads
    keys = [" ".join(argv) for argv in ledger.BATTERY]
    pairs = []
    for key in keys:
        if "--threads 2" in key:
            twin = key.replace("--threads 2", "--threads 1")
            pairs.append((key, twin if twin in keys else key.replace(" --threads 2", "")))
    assert len(pairs) == 6 and sum(twin not in keys for _, twin in pairs) == 1
    for key, twin in pairs:
        assert ledger.run(key.split()) == ledger.run(twin.split()), key


def test_threads_twins_run_blocks_of_both_routes():
    # clt draws its reps replications as reps chains of the N-fold model, in
    # blocks of 4096 // p chains; route 0 steps a block in lockstep, and W >= 1
    # draws it in windows of W immigrant cohorts. (model, N, reps, n, routes
    # of the full block and of the rest) of the battery's verify clt twins:
    # GRID3 at N = 7 and 1400 replications, a lockstep block of 1365 chains
    # and one of 35 drawn as cohorts; random_model(8, 0), of low-mean product
    # and table laws, at N = 2 and 540 replications, a lockstep block of 512
    # chains and a cohort block of 28, both of which draw their geometric,
    # Poisson and table sums on the sparse routes; the scalar INAR at N = 50,
    # 200 steps and 4126 replications, a lockstep block of 4096 chains and
    # one of 30 drawn in windows of 10 cohorts
    twins = [("grid3", 7, 1400, 20, [0, 1]), ("rand8", 2, 540, 20, [0, 1]),
             ("inar", 50, 4126, 200, [0, 10])]
    for name, N, reps, n, want in twins:
        m = model_from_json(ledger.MODELS[name])
        chain = simulate._superposed(m, N)
        steps = simulate.burnin_auto(m, reps * N) + n
        life = simulate._cohort_lifetime(chain)
        full = simulate.block_copies(m.p)
        routes = [simulate._cohort_route(chain, B, life, steps) for B in (full, reps - full)]
        assert routes == want, name
    # the twin verify iterated --limit-order n --copies 1400 on GRID3 runs
    # the sweep points 350, 700 and 1400, each its copies as chains of the
    # model itself: 350 chains drawn as cohorts, 700 stepped in lockstep, and
    # 1400 as a lockstep block of 1365 chains and a cohort block of 35; the
    # burn-in certifies all 2450 copies
    m = model_from_json(ledger.MODELS["grid3"])
    chain = simulate._superposed(m, 1)
    steps = simulate.burnin_auto(m, 350 + 700 + 1400) + 20
    life = simulate._cohort_lifetime(chain)
    assert simulate.block_copies(m.p) == 1365
    routes = [simulate._cohort_route(chain, B, life, steps) for B in (350, 700, 1365, 35)]
    assert routes == [1, 0, 0, 1]
