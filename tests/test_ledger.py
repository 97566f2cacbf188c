"""The byte ledger's battery (tests/ledger.py) reruns byte-identically in one
process, and its --threads 2 runs write what their one-process twins
write. The committed manifest is not compared here: BLAS kernels differ
by CPU, so a matmul may move last bits between hosts even where the numpy
versions match."""

import copy

import ledger

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
