import csv
import itertools
import json
import subprocess
import sys
from fractions import Fraction

import pytest


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "tritsp", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


class TestAudit:
    def test_inst4(self, data_dir):
        res = run_cli("audit", f"{data_dir}/inst4.json")
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert payload["k"] == 1
        assert payload["k_T"] == 3
        assert payload["bad"] == [0, 1, 2]
        assert payload["good"] == [3]
        assert payload["violating"] == [[0, 1, 2]]

    def test_missing_file(self):
        res = run_cli("audit", "/no/such/file.json")
        assert res.returncode == 1
        assert res.stderr.strip()
        assert res.stdout == ""


class TestSolve:
    def test_inst4_payload(self, data_dir):
        res = run_cli("solve", f"{data_dir}/inst4.json")
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert payload["cost"] == 13
        assert payload["tour"] == [0, 2, 1, 3]
        assert payload["layouts"] == 2
        assert payload["certified"] == 2
        assert "ms" in res.stderr  # timing goes to stderr, not stdout

    def test_stdout_is_byte_stable(self, data_dir):
        a = run_cli("solve", f"{data_dir}/inst4.json")
        b = run_cli("solve", f"{data_dir}/inst4.json")
        assert a.stdout == b.stdout
        assert a.returncode == b.returncode == 0

    def test_sq4(self, data_dir):
        res = run_cli("solve", f"{data_dir}/sq4.json")
        payload = json.loads(res.stdout)
        assert payload["cost"] == 8
        assert payload["k"] == 0

    def test_max_bad_refusal_exit_code(self, data_dir):
        res = run_cli("solve", f"{data_dir}/inst4.json", "--max-bad", "2")
        assert res.returncode == 2
        assert res.stdout == ""

    def test_cert_flag(self, data_dir):
        res = run_cli("solve", f"{data_dir}/inst4.json", "--cert")
        assert res.returncode == 0
        assert json.loads(res.stdout)["cost"] == 13


class TestExact:
    def test_inst4(self, data_dir):
        res = run_cli("exact", f"{data_dir}/inst4.json")
        payload = json.loads(res.stdout)
        assert payload["cost"] == 13
        assert payload["tour"] == [0, 2, 1, 3]

    def test_tsplib_input(self, data_dir):
        res = run_cli("exact", f"{data_dir}/sq4.tsp")
        assert json.loads(res.stdout)["cost"] == 8

    def test_cost_past_int64(self, tmp_path):
        # one cost of 2**63 does not fit int64: the DP runs on exact ints
        n = 5
        rows = [[0 if i == j else 1 + (i * j) % 4 for j in range(n)] for i in range(n)]
        rows[1][3] = rows[3][1] = 2**63
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"name": "huge", "n": n, "cost": rows}))
        res = run_cli("exact", str(path))
        assert res.returncode == 0, res.stderr
        payload = json.loads(res.stdout)
        best = min(
            sum(rows[a][b] for a, b in zip(t, t[1:] + t[:1]))
            for t in ((0, *p) for p in itertools.permutations(range(1, n)))
        )
        assert payload["cost"] == best
        assert sorted(payload["tour"]) == list(range(n))

    def test_size_refusal(self, tmp_path):
        res = run_cli("gen", "--metric", "--n", "20", "--seed", "3",
                      "-o", str(tmp_path / "m20.json"))
        assert res.returncode == 0
        res = run_cli("exact", str(tmp_path / "m20.json"))
        assert res.returncode == 2


class TestGen:
    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli("gen", "--planted", "--n", "9", "--bad", "3", "--seed", "11",
                "-o", str(a))
        run_cli("gen", "--planted", "--n", "9", "--bad", "3", "--seed", "11",
                "-o", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_planted_requires_bad(self, tmp_path):
        res = run_cli("gen", "--planted", "--n", "9", "--seed", "1",
                      "-o", str(tmp_path / "x.json"))
        assert res.returncode == 1

    def test_metric_rejects_bad_flag(self, tmp_path):
        res = run_cli("gen", "--metric", "--n", "9", "--bad", "3", "--seed", "1",
                      "-o", str(tmp_path / "x.json"))
        assert res.returncode == 1

    def test_gen_audit_pipeline(self, tmp_path):
        out = tmp_path / "p.json"
        res = run_cli("gen", "--planted", "--n", "8", "--bad", "3", "--seed", "4",
                      "-o", str(out))
        assert res.returncode == 0
        audit = run_cli("audit", str(out))
        payload = json.loads(audit.stdout)
        assert payload["k_T"] == 3


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("corpus")
    for seed in (1, 2):
        run_cli("gen", "--planted", "--n", "8", "--bad", "3",
                "--seed", str(seed), "-o", str(d / f"p8-s{seed}.json"))
    run_cli("gen", "--metric", "--n", "6", "--seed", "5",
            "-o", str(d / "m6-s5.json"))
    return d


class TestBench:
    def test_csv_shape(self, corpus_dir, tmp_path):
        out = tmp_path / "rows.csv"
        res = run_cli("bench", "--dir", str(corpus_dir), "--out", str(out))
        assert res.returncode == 0
        lines = out.read_text().splitlines()
        assert lines[0] == (
            "instance,n,k,k_T,alg_cost,opt_cost,ratio_num,ratio_den,"
            "layouts,certified,time_ms,seed"
        )
        assert len(lines) == 4
        # seeds recovered from the -s<seed> filename suffix
        assert lines[1].split(",")[-1] == "5"

    def test_rows_reproducible_apart_from_timing(self, corpus_dir, tmp_path):
        outs = []
        for name in ("r1.csv", "r2.csv"):
            out = tmp_path / name
            run_cli("bench", "--dir", str(corpus_dir), "--out", str(out))
            rows = [line.split(",") for line in out.read_text().splitlines()]
            time_col = rows[0].index("time_ms")
            outs.append([r[:time_col] + r[time_col + 1:] for r in rows])
        assert outs[0] == outs[1]

    def test_summary_on_stdout(self, corpus_dir, tmp_path):
        res = run_cli("bench", "--dir", str(corpus_dir), "--out",
                      str(tmp_path / "s.csv"))
        assert "max_ratio" in res.stdout
        assert "instances=3" in res.stdout

    def test_output_without_top_is_the_summary_alone(self, corpus_dir, tmp_path):
        out = tmp_path / "p.csv"
        plain = run_cli("bench", "--dir", str(corpus_dir), "--out", str(out))
        zero = run_cli("bench", "--dir", str(corpus_dir), "--out",
                       str(tmp_path / "z.csv"), "--top", "0")
        assert plain.returncode == zero.returncode == 0
        rows = list(csv.DictReader(out.open()))
        groups = {(r["n"], r["k"]) for r in rows}
        lines = plain.stdout.splitlines()
        # header, one line per (n, k), the instance/time line; no worst list
        assert lines[0].split() == ["n", "k", "count", "mean_ratio", "max_ratio"]
        assert len(lines) == len(groups) + 2
        assert lines[-1].startswith("instances=3 time_ms p50=")
        # only the time figures may differ between runs
        assert zero.stdout.splitlines()[:-1] == lines[:-1]

    def test_top_lists_worst_ratios(self, corpus_dir, tmp_path):
        out = tmp_path / "t.csv"
        res = run_cli("bench", "--dir", str(corpus_dir), "--out", str(out),
                      "--top", "2")
        assert res.returncode == 0
        rows = list(csv.DictReader(out.open()))
        rows.sort(key=lambda r: Fraction(int(r["alg_cost"]), int(r["opt_cost"])),
                  reverse=True)
        lines = res.stdout.splitlines()
        at = lines.index("worst 2 ratios:")
        assert lines[at - 1] == ""
        assert lines[at - 2].startswith("instances=3 ")
        listed = lines[at + 1:]
        assert len(listed) == 2
        for line, row in zip(listed, rows):
            assert line.startswith(
                f"  {row['instance']}: {row['alg_cost']}/{row['opt_cost']} = "
            )
            assert line.endswith(f" (n={row['n']}, k={row['k']})")
