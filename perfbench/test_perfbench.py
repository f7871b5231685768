"""Self-test of the benchmark: tiny workloads end to end, and the oracle.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from oracle import FAILED, OK, WRONG, Oracle  # noqa: E402
from smoothwords import transfer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _names(kind):
    return {m["name"] for m in SPEC[kind]}


@pytest.fixture(scope="module")
def judge():
    return Oracle().judge


def _count_request(family, n, k, method="auto"):
    return workloads.Request("count", ("count", family, "--n", str(n), "--k",
                                       str(k), "--method", method),
                             family=family, method=method, n=n, k=k)


@pytest.mark.parametrize("workload", sorted(workloads.WHY))
def test_tiny_workload_end_to_end(workload):
    result = run.benchmark(workload, seed=7, seconds=0, trace=False, tiny=True)
    assert result["correct"]
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == _names("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    # The only requests allowed to fail are those over the print limit.
    check = Oracle()
    over = sum(check.over_print_limit(r)
               for r in workloads.generate(workload, 7, tiny=True))
    assert result["failed"] <= over * run.MIN_PASSES


def test_tiny_traced_run_reports_every_layer_metric():
    result = run.benchmark("count-deep", seed=3, seconds=0, trace=True,
                           tiny=True)
    assert result["correct"]
    assert set(result["metrics"]) == _names("per_layer")
    assert result["metrics"]["transfer.self_s"]["value"] > 0
    assert 0 < result["metrics"]["attributed_frac"]["value"] <= 1.05


def test_oracle_flags_off_by_one_counts(judge):
    req = _count_request("sn", 12, 5)
    right = transfer.necklace_exact(12, 5)
    assert judge(req, 0, f"{right}\n") == OK
    assert judge(req, 0, f"{right + 1}\n") == WRONG
    gf = _count_request("scw", 30, 6, "gf")
    assert judge(gf, 0, f"{transfer.scw_exact(30, 6) - 1}\n") == WRONG


def test_oracle_flags_a_wrong_table_cell(judge):
    for fmt in workloads.FORMATS:
        req = workloads.Request("table", (), family="both", n=6, k_min=2,
                                k_max=3, fmt=fmt)
        rows = [(fam, k, [transfer.sw_exact(n, k) if fam == "sw"
                          else transfer.scw_exact(n, k) for n in range(7)])
                for k in (2, 3) for fam in ("sw", "scw")]
        good = oracle._table_text(rows, req) if fmt != "jsonl" else "".join(
            json.dumps({"family": fam, "n": n, "k": k, "method": "matrix",
                        "count": str(c)}) + "\n"
            for fam, k, counts in rows for n, c in enumerate(counts))
        assert judge(req, 0, good) == OK
        bad = good.replace(str(rows[-1][2][-1]), str(rows[-1][2][-1] + 1))
        assert judge(req, 0, bad) == WRONG


def test_oracle_checks_the_comparison_count(judge):
    req = workloads.Request("check", (), n=4, k=2)
    line = f"{oracle.check_comparisons(4, 2)} cross-checks, 0 mismatches\n"
    assert judge(req, 0, line) == OK
    assert judge(req, 0, line.replace(" cross", "1 cross")) == WRONG
    assert judge(req, 1, "MISMATCH ...\n" + line) == FAILED


def test_oracle_spectral_outcomes(judge):
    req = _count_request("sw", 30, 3, "spectral")
    right = transfer.sw_exact(30, 3)
    assert judge(req, 3, "") == OK              # refusal outside the window
    assert judge(req, 0, f"{right}\n") == OK    # or the exact answer
    assert judge(req, 0, f"{right + 1}\n") == WRONG
    assert judge(req, 3, f"{right}\n") == FAILED
    assert judge(req, 2, "") == FAILED


def test_oracle_exit_status_contract(judge):
    req = _count_request("sw", 5, 3)
    assert judge(req, 4, "") == WRONG
    assert judge(req, 2, "") == FAILED          # an answer was owed


@pytest.mark.parametrize("k", range(1, 7))
def test_method_of_images_matches_transfer(k):
    for n in range(0, 25):
        assert oracle.scw_images(n, k) == transfer.scw_exact(n, k)


def test_requests_replay_from_the_seed():
    for name in workloads.WHY:
        first = workloads.generate(name, 11)
        assert first == workloads.generate(name, 11)
        assert first != workloads.generate(name, 12)
        assert all(r.shell().startswith("python -m smoothwords ")
                   for r in first)


def test_print_limit_requests_are_deterministic():
    check = Oracle()
    for seed in (1, 2):
        reqs = workloads.generate("count-deep", seed)
        assert sum(check.over_print_limit(r) for r in reqs) == 4


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "count-deep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
